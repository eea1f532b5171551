"""Inter-chip request migration with an explicit cost model.

The paper's §3.6 note on heat-and-run — migration "may be ineffective
on fully-burdened machines" — is about *cores*; across a rack there is
almost always a cooler machine, but moving work there is no longer
free.  A migrated request pays twice:

- **state-transfer latency**: connection and request state crosses the
  rack network before the target can run it;
- **cache-warmup penalty**: the target's caches are cold for this
  request, so its remaining service time inflates (Gomaa et al.
  measure exactly this loss intra-chip; inter-chip it is strictly
  worse — nothing is shared).

:class:`MigrationCostModel` makes both explicit.
:class:`MigrationPolicy` is the cluster manager: it periodically ranks
machines by sampled temperature (the same management-plane view
:class:`~repro.fleet.scheduling.placement.ThermalBalancer` uses) and
drains queued requests from hot machines to cool ones, paying the
model's price per request.  :class:`CacheAwareMigrationPolicy` is the
THEAS-style refinement: it migrates a request only when the thermal
benefit (the source→target temperature drop) is worth that request's
individual warmup cost, so cheap requests move and cache-heavy ones
stay put.

Mechanically this is the inter-chip sibling of
:class:`repro.core.migration.ThermalMigrationPolicy` (which re-pins a
*running thread* to a cooler core of the same chip): same periodic
hot/cool pairing, same event history for analysis, but the moved unit
is a queued request and the cost is explicit rather than implicitly
zero.  Both layers compose — the ``fleet-compare`` experiment runs
them together.

Telemetry (created at construction so manifests always carry them):
``fleet.migrations`` (total), ``fleet.migrations.m<j>`` (per source
machine, summing to the total), ``fleet.migration_cost_ms`` (total
modelled cost), ``fleet.migration_blocked_cycles`` (evaluation cycles
with no eligible cool target — the rack-wide §3.6 failure mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ...errors import ConfigurationError
from ...sim.process import PeriodicTask
from ...telemetry.registry import registry as _metrics_registry
from ...workloads.webserver import Request, WebServer
from ..machine import FleetMachine
from .placement import sampled_machine_temps


@dataclass(frozen=True)
class MigrationCostModel:
    """What moving one queued request between machines costs.

    ``transfer_latency`` delays the request's arrival at the target by
    a fixed wire time (seconds); ``warmup_penalty`` inflates its
    remaining service time by a fraction (cold caches at the target).
    """

    transfer_latency: float = 0.002
    warmup_penalty: float = 0.15

    def __post_init__(self) -> None:
        if self.transfer_latency < 0:
            raise ConfigurationError("transfer latency cannot be negative")
        if self.warmup_penalty < 0:
            raise ConfigurationError("warmup penalty cannot be negative")

    def cost_seconds(self, request: Request) -> float:
        """Total modelled delay added to ``request`` by one migration."""
        return self.transfer_latency + self.warmup_penalty * request.service_time

    @property
    def is_free(self) -> bool:
        return self.transfer_latency == 0.0 and self.warmup_penalty == 0.0


#: The cost model under which migration degenerates to free rebalancing.
ZERO_COST = MigrationCostModel(transfer_latency=0.0, warmup_penalty=0.0)


@dataclass
class FleetMigrationEvent:
    """One inter-machine request migration, for analysis and tests."""

    time: float
    rid: int
    source: int
    target: int
    source_temp: float
    target_temp: float
    cost_seconds: float
    #: The migrated request itself (rids are per-server, not unique
    #: fleet-wide, so conservation checks need the object).
    request: Request = field(repr=False, default=None)


class MigrationPolicy:
    """Periodically drain queued work from hot machines to cool ones.

    Parameters
    ----------
    fleet, servers:
        The rack and its per-node web servers (node order).
    period:
        Evaluation period, seconds of simulated time.
    min_delta:
        Minimum sampled source−target temperature gap (°C) before a
        pair is considered.  The target is always the coolest machine,
        so no migration can ever move work to a hotter machine.
    hot_rise:
        Optional activation threshold: only machines at least this far
        (°C) above the idle baseline are drained.  ``None`` drains the
        hottest machines regardless.
    max_moves:
        Request budget per source machine per evaluation cycle.
    cost_model:
        The :class:`MigrationCostModel` applied to every move.
    """

    def __init__(
        self,
        fleet: FleetMachine,
        servers: Sequence[WebServer],
        *,
        period: float = 1.0,
        min_delta: float = 0.5,
        hot_rise: Optional[float] = None,
        max_moves: int = 4,
        cost_model: Optional[MigrationCostModel] = None,
    ):
        if len(servers) != fleet.num_machines:
            raise ConfigurationError(
                f"migration policy got {len(servers)} servers for "
                f"{fleet.num_machines} machines"
            )
        if period <= 0:
            raise ConfigurationError("migration period must be positive")
        if min_delta < 0:
            raise ConfigurationError("min_delta must be non-negative")
        if max_moves < 1:
            raise ConfigurationError("max_moves must be at least 1")
        self.fleet = fleet
        self.servers = list(servers)
        self.period = float(period)
        self.min_delta = float(min_delta)
        self.hot_rise = None if hot_rise is None else float(hot_rise)
        self.max_moves = int(max_moves)
        self.cost_model = cost_model if cost_model is not None else MigrationCostModel()
        self.history: List[FleetMigrationEvent] = []
        #: Evaluation cycles in which no machine pair cleared min_delta.
        self.blocked_cycles = 0
        scope = _metrics_registry().scope("fleet")
        self._metric_migrations = scope.counter("migrations")
        self._metric_per_machine = [
            scope.counter(f"migrations.m{j}") for j in range(fleet.num_machines)
        ]
        self._metric_cost_ms = scope.counter("migration_cost_ms")
        self._metric_blocked = scope.counter("migration_blocked_cycles")
        # The manager polls on the fleet's own clock — its decisions
        # read sampled telemetry and pop queues, never chip state, so
        # it needs no node sim view and perturbs no physics.
        self._task = PeriodicTask(fleet.sim, self.period, self._step)

    @property
    def migrations(self) -> int:
        return len(self.history)

    @property
    def total_cost_seconds(self) -> float:
        return sum(event.cost_seconds for event in self.history)

    def stop(self) -> None:
        self._task.cancel()

    # ------------------------------------------------------------------
    def _accepts(self, request: Request, delta: float) -> bool:
        """Whether moving ``request`` across a ``delta`` °C gap is worth
        it.  The base policy moves everything offered (Chrobak-style:
        temperature alone decides)."""
        return True

    def _step(self) -> None:
        temps = sampled_machine_temps(self.fleet)
        idle = self.fleet.idle_mean_temp
        hot_order = np.argsort(-temps, kind="stable")
        migrated_any = False
        for source in hot_order:
            source = int(source)
            if self.hot_rise is not None and temps[source] - idle < self.hot_rise:
                break  # hot_order is descending: nobody further is hot
            target = self._coolest_other(temps, source)
            if target is None:
                continue
            delta = float(temps[source] - temps[target])
            moved = self.servers[source].donate_queued(
                self.max_moves,
                accept=lambda request: self._accepts(request, delta),
            )
            for request in moved:
                self._transfer(request, source, target, temps)
                migrated_any = True
        if not migrated_any:
            self.blocked_cycles += 1
            self._metric_blocked.inc()

    def _coolest_other(self, temps: np.ndarray, source: int) -> Optional[int]:
        """The coolest machine at least ``min_delta`` below ``source``."""
        target = int(np.argmin(temps))
        if target == source:
            return None
        if temps[source] - temps[target] < self.min_delta:
            return None
        return target

    def _transfer(
        self, request: Request, source: int, target: int, temps: np.ndarray
    ) -> None:
        cost = self.cost_model.cost_seconds(request)
        # Cold caches at the target: the not-yet-started request's
        # service time inflates before it is re-queued there.
        request.service_time *= 1.0 + self.cost_model.warmup_penalty
        # Delivery is a *target-node event* after the wire latency, so
        # the target's physics gap closes before its queues change and
        # a blocked worker wakes — even on a machine that was fully
        # idle mid-substep.
        self.fleet.nodes[target].sim.schedule(
            self.cost_model.transfer_latency,
            self.servers[target].accept_migrated,
            request,
        )
        self.history.append(
            FleetMigrationEvent(
                time=self.fleet.sim.now,
                rid=request.rid,
                source=source,
                target=target,
                source_temp=float(temps[source]),
                target_temp=float(temps[target]),
                cost_seconds=cost,
                request=request,
            )
        )
        self._metric_migrations.inc()
        self._metric_per_machine[source].inc()
        self._metric_cost_ms.inc(cost * 1e3)


class CacheAwareMigrationPolicy(MigrationPolicy):
    """THEAS-style migration: thermal benefit must buy the warmup cost.

    A request moves only when the source→target temperature drop is at
    least ``degrees_per_cost_second`` °C for every second of modelled
    migration cost *for that request*.  Short requests (cheap warmup)
    migrate under modest gradients; cache-heavy requests stay unless
    the thermal gradient is steep — the resource-aware weighing THEAS
    applies to task-to-core assignment, lifted to the rack.
    """

    def __init__(self, *args, degrees_per_cost_second: float = 50.0, **kwargs):
        super().__init__(*args, **kwargs)
        if degrees_per_cost_second <= 0:
            raise ConfigurationError("degrees_per_cost_second must be positive")
        self.degrees_per_cost_second = float(degrees_per_cost_second)

    def _accepts(self, request: Request, delta: float) -> bool:
        return delta >= self.degrees_per_cost_second * self.cost_model.cost_seconds(
            request
        )

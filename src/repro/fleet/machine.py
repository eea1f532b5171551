"""A rack of simulated servers sharing one event queue and one
structure-of-arrays physics state.

A :class:`FleetMachine` is ``N`` servers, each a :class:`FleetNode`:
the same :class:`~repro.experiments.machine.ServerStack` a standalone
:class:`~repro.experiments.machine.Machine` is, with all nodes' events
interleaved on one shared :class:`~repro.sim.engine.Simulator`.  What
is *not* per-node is the physics: every machine is a copy of the same
thermal network, so the whole fleet's temperatures live in one
``(machines, nodes)`` array inside a
:class:`~repro.thermal.rcnetwork.FleetThermalIntegrator` and cohorts of
machines advance with one batched propagation per substep.

How per-machine event streams drive batched physics
---------------------------------------------------

The single-server machine integrates eagerly: an advance listener runs
the thermal model over every inter-event gap before each event fires.
A fleet cannot do that directly — splitting machine A's quiet interval
at machine B's event times would change A's substep lengths and with
them the leakage-lag discretization, breaking run-for-run equivalence
with a standalone machine.  Instead, each node schedules its callbacks
through a :class:`_NodeSimView`, a node-scoped view of the shared
simulator that wraps every callback: immediately before a node's event
runs, the node's physics *gap* (from its last event to now) is closed
by **recording** the node's power pieces — the very pieces the
standalone machine integrates.  Nothing is integrated yet; pieces
queue per node.

Integration happens in batch when temperatures are actually needed
(a temperature-log sample, a ``core_temps`` read, or the end of
:meth:`FleetMachine.run`): each drain round pops the head-of-queue
segment of every node that still has one and advances them all as one
cohort with one batched call, each column with its own duration and
therefore its own substep length.  Deferring is sound because power
coefficients are segment constants: they capture the chip state at
recording time and do not depend on when the integral is evaluated.
Per-node segment order is preserved, so each machine sees exactly the
integral a standalone machine would have computed; a fleet of one
machine is *bit-identical* to a standalone :class:`Machine` (the tests
pin this), and an N-machine fleet matches N independent runs to well
under the repo-wide 1e-9 °C equivalence tolerance.  Cohorts span every
node with pending physics, whether or not the event streams align
(see :class:`~repro.thermal.rcnetwork.FleetThermalIntegrator`).

Telemetry (shared registry, additive across nodes): the integrator's
``fleet.machines`` / ``fleet.substeps`` / ``fleet.advance_wall``, plus
``fleet.segments`` (recorded pieces), ``fleet.drains``, and coefficient
stack build/reuse counters from this module.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.injector import IdleMode
from ..cpu.power import FleetCoefficients, PowerCoefficients
from ..experiments.config import ExperimentConfig
from ..experiments.machine import ServerStack, idle_equilibrium
from ..health import FleetHealth, HealthParams
from ..sim.engine import Event, Simulator
from ..telemetry.registry import registry as _metrics_registry
from ..thermal.floorplan import build_network
from ..thermal.rcnetwork import FleetThermalIntegrator


class _NodeSimView:
    """One node's view of the shared simulator.

    Exposes the :class:`~repro.sim.engine.Simulator` surface node
    components use (``now``, ``schedule``, ``schedule_at``) and wraps
    every scheduled callback so the node's physics gap is closed —
    segments recorded up to the current instant — before the callback
    mutates any state the power model depends on.  Cancelling the
    returned :class:`~repro.sim.engine.Event` works unchanged.
    """

    __slots__ = ("_fleet", "_index", "_sim")

    def __init__(self, fleet: "FleetMachine", index: int, sim: Simulator):
        self._fleet = fleet
        self._index = index
        self._sim = sim

    @property
    def now(self) -> float:
        return self._sim.now

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        return self._sim.schedule(delay, self._fire, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        return self._sim.schedule_at(time, self._fire, callback, args)

    def _fire(self, callback: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self._fleet._close_gap(self._index)
        callback(*args)


class FleetNode(ServerStack):
    """One server of the fleet: a server stack scheduling through a
    node-scoped view of the shared simulator (:attr:`sim`) and reading
    temperatures from the fleet's batched integrator.  Being the same
    stack as :class:`~repro.experiments.machine.Machine` is what makes
    a node's event stream, and so its physics pieces, identical to a
    standalone machine built from the same config.
    """

    def __init__(
        self,
        fleet: "FleetMachine",
        index: int,
        config: ExperimentConfig,
        *,
        idle_mode: IdleMode,
        co_schedule_smt: bool,
    ):
        self.fleet = fleet
        #: Recorded-but-unintegrated physics pieces, in time order, as
        #: ``(start, duration, coefficients)``.
        self.pending: Deque[Tuple[float, float, PowerCoefficients]] = deque()
        #: End of the last recorded piece (= this node's last event).
        self.last_physics_time = fleet.sim.now
        super().__init__(
            config,
            _NodeSimView(fleet, index, fleet.sim),
            lambda: fleet._node_temps(index),
            fleet.idle_core_temps,
            idle_mode=idle_mode,
            co_schedule_smt=co_schedule_smt,
            index=index,
        )


class FleetMachine:
    """``machines`` fully wired servers advancing as one batch.

    Node ``j`` is built from ``config.with_seed(config.seed + j)``, so
    node 0 of a fleet is the *same* simulated server as a standalone
    ``Machine(config)`` and the other nodes are independent replicas
    with decorrelated workload randomness.
    """

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        *,
        machines: int = 4,
        idle_mode: IdleMode = IdleMode.HALT,
        co_schedule_smt: bool = False,
    ):
        self.config = config or ExperimentConfig()
        cfg = self.config
        self.num_machines = int(machines)

        self.sim = Simulator()
        #: One network shared by every node: homogeneous machines share
        #: one eigenbasis, so one gemm builds a whole cohort's kernels.
        self.network = build_network(cfg.thermal, cfg.num_cores)

        scope = _metrics_registry().scope("fleet")
        self._metric_segments = scope.counter("segments")
        self._metric_drains = scope.counter("drains")
        self._metric_stack_builds = scope.counter("coefficient_stacks.builds")
        self._metric_stack_reuses = scope.counter("coefficient_stacks.reuses")

        # --- idle-equilibrium initial condition, computed once --------
        # All chips are identical and idle at t=0, so one settle seeds
        # every row of the fleet state with the temperatures a
        # standalone machine starts from (bitwise: the same helper).
        idle = idle_equilibrium(cfg, self.network)
        self.integrator = FleetThermalIntegrator(
            self.network,
            machines,
            initial_temps=idle,
            max_substep=cfg.thermal.max_substep,
        )
        #: Per-core idle temperatures — the baseline, °C (all nodes).
        self.idle_core_temps = idle[: cfg.num_cores].copy()
        self.nodes: List[FleetNode] = [
            FleetNode(
                self,
                j,
                cfg.with_seed(cfg.seed + j),
                idle_mode=idle_mode,
                co_schedule_smt=co_schedule_smt,
            )
            for j in range(machines)
        ]

        #: Cohort-width -> last coefficient stack, for identity-matched
        #: reuse (aligned fleets rebuild nothing in steady state).
        self._stack_cache: Dict[int, FleetCoefficients] = {}
        #: Rack-level health aggregation once :meth:`attach_health` runs.
        self.health: Optional[FleetHealth] = None

    # ------------------------------------------------------------------
    # Health monitoring
    # ------------------------------------------------------------------
    def attach_health(self, params: Optional[HealthParams] = None) -> FleetHealth:
        """Attach one :class:`~repro.health.HealthMonitor` per node.

        Each node builds its monitor exactly as a standalone machine
        does (:meth:`~repro.experiments.machine.ServerStack.attach_health`),
        with rise thresholds pinned to this rack's idle baseline.
        Monitors run through each node's sim view, so a sample sees
        physics integrated up to the sampling instant.
        """
        params = params or HealthParams()
        monitors = [node.attach_health(params) for node in self.nodes]
        self.health = FleetHealth(
            monitors, params=params, idle_mean=self.idle_mean_temp
        )
        return self.health

    # ------------------------------------------------------------------
    # Physics co-simulation
    # ------------------------------------------------------------------
    def _close_gap(self, index: int) -> None:
        """Record node ``index``'s physics from its last event to now:
        the same pieces ``Machine._advance_physics`` integrates
        (:meth:`~repro.experiments.machine.ServerStack.power_pieces`),
        queued instead of integrated."""
        node = self.nodes[index]
        now = self.sim.now
        t0 = node.last_physics_time
        if now <= t0:
            return
        pending = node.pending
        recorded = len(pending)
        pending.extend(node.power_pieces(t0, now))
        node.last_physics_time = now
        self._metric_segments.inc(len(pending) - recorded)

    def _cohort_stack(
        self, columns: Sequence[PowerCoefficients]
    ) -> FleetCoefficients:
        """The node-major coefficient stack for one cohort, reusing the
        previous stack of the same width when every column is the same
        (memoised) coefficient object."""
        width = len(columns)
        cached = self._stack_cache.get(width)
        if cached is not None and cached.matches(columns):
            self._metric_stack_reuses.inc()
            return cached
        stack = FleetCoefficients.from_coefficients(columns)
        self._stack_cache[width] = stack
        self._metric_stack_builds.inc()
        return stack

    def _drain(self) -> None:
        """Integrate every recorded segment, batching across nodes.

        Each round advances the head-of-queue segment of every node
        with pending physics as one cohort, one duration per column;
        rounds repeat until all queues are empty.  Per-node segment
        order is preserved, which is all machine-level equivalence
        needs — cohort membership only changes floating-point
        summation order inside the batched propagation.
        """
        nodes = self.nodes
        active = [j for j in range(self.num_machines) if nodes[j].pending]
        if not active:
            return
        integrator = self.integrator
        while active:
            heads = [nodes[j].pending.popleft() for j in active]
            starts, durations, columns = zip(*heads)
            energies = integrator.advance_machines(
                active, durations, self._cohort_stack(columns)
            )
            for j, start, duration, energy in zip(active, starts, durations, energies):
                nodes[j].powermeter.record_segment(start, duration, energy / duration)
            active = [j for j in active if nodes[j].pending]
        self._metric_drains.inc()

    def _node_temps(self, index: int) -> np.ndarray:
        """Node ``index``'s current node temperatures (°C), integrating
        everything recorded so far.  Returns a live row view; callers
        that keep the array must copy."""
        self._close_gap(index)
        self._drain()
        return self.integrator.temps[index]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        """Advance the whole fleet by ``duration`` seconds.

        Like the standalone machine's run, the final partial interval
        is integrated too: every node's gap is closed at the end time
        and all queues drain, so temperatures and energy are current
        when this returns.
        """
        self.sim.run(until=self.sim.now + duration)
        for j in range(self.num_machines):
            self._close_gap(j)
        self._drain()

    # ------------------------------------------------------------------
    # Fleet-level measurements
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def idle_mean_temp(self) -> float:
        """Mean per-core idle (baseline) temperature, °C."""
        return float(np.mean(self.idle_core_temps))

    def mean_core_temp_over_window(self, window: Optional[float] = None) -> float:
        """Fleet-mean core temperature over the trailing window, °C."""
        return float(
            np.mean([node.mean_core_temp_over_window(window) for node in self.nodes])
        )

    def total_energy(self, start: float = -np.inf, end: float = np.inf) -> float:
        """Aggregate package energy over [start, end], J."""
        return float(sum(node.energy(start, end) for node in self.nodes))

    def total_work_done(self) -> float:
        """Total useful work completed across the fleet, CPU-seconds."""
        return float(sum(node.total_work_done() for node in self.nodes))

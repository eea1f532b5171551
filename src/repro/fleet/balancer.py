"""The datacenter front door: one arrival stream, pluggable placement.

The fleet experiments model the simplest datacenter topology: one
aggregate Poisson arrival stream (the sum of every machine's §3.7
connection pool) dispatched across per-machine web servers.  How each
arrival picks its machine is the *placement policy*:
:class:`Balancer` owns the arrival loop, validation, and telemetry,
and subclasses supply :meth:`Balancer.select`.

- :class:`RoundRobinBalancer` (here) cycles machines blindly.
  Round-robin splitting of a Poisson process gives each of ``N``
  servers Erlang-``N`` interarrivals at ``1/N`` of the aggregate rate —
  same mean load as fig6's per-server Poisson stream, slightly
  smoother, which is exactly what a front-end balancer does to a rack.
- :class:`~repro.fleet.scheduling.ThermalBalancer`
  (``repro.fleet.scheduling``) routes by per-machine temperature.

Each arrival is one event on the fleet's simulator: it picks the
machine, closes that node's physics gap, hands the request to the
node's server and schedules the next arrival.  Closing the gap first
records the node's power pieces up to the arrival instant before the
request mutates its queues, just as a node's own events do.

Telemetry: ``fleet.balancer.routed`` counts total dispatches and
``fleet.placement.m<j>`` counts arrivals per machine; the per-machine
counters always sum to the total (pinned by tests).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..sim.engine import Event
from ..telemetry.registry import registry as _metrics_registry
from ..workloads.loadshapes import ArrivalProcess
from ..workloads.webserver import WebServer
from .machine import FleetMachine


class Balancer:
    """Dispatches a fleet-level arrival stream over the rack.

    Parameters
    ----------
    fleet:
        The fleet whose nodes host the servers.
    servers:
        One :class:`~repro.workloads.webserver.WebServer` per fleet
        node, in node order, built with ``external_arrivals=True``.
    rate:
        Nominal aggregate arrival rate, requests/s.  Without
        ``arrivals`` this is the homogeneous Poisson rate; with it, the
        rate the rack is *sized* for (reports quote it either way).
    rng:
        Stream for the arrival draws (use a fleet-level stream, not a
        node's, so node randomness stays decorrelated from the front
        door).
    arrivals:
        Optional :class:`~repro.workloads.loadshapes.ArrivalProcess`
        replacing the fixed-rate Poisson stream — diurnal/surge/bursty
        shapes, trace replays, or any superposition.  A finite process
        (trace replay) simply stops generating arrivals when exhausted.

    Subclasses implement :meth:`select` — called once per arrival,
    returning the index of the machine that receives it.
    """

    #: Registry name of the policy (overridden by subclasses).
    policy_name = "abstract"

    def __init__(
        self,
        fleet: FleetMachine,
        servers: Sequence[WebServer],
        *,
        rate: float,
        rng: np.random.Generator,
        arrivals: Optional[ArrivalProcess] = None,
    ):
        if len(servers) != fleet.num_machines:
            raise ConfigurationError(
                f"balancer got {len(servers)} servers for "
                f"{fleet.num_machines} machines"
            )
        if rate <= 0:
            raise ConfigurationError("aggregate arrival rate must be positive")
        self.fleet = fleet
        self.servers = list(servers)
        self.rate = float(rate)
        self.arrivals = arrivals
        self._rng = rng
        #: Requests routed to each node so far.
        self.routed: List[int] = [0] * len(self.servers)
        scope = _metrics_registry().scope("fleet")
        self._metric_routed = scope.counter("balancer.routed")
        self._metric_placement = [
            scope.counter(f"placement.m{j}") for j in range(len(self.servers))
        ]
        self._gaps = self._gap_stream()
        #: The next arrival's event, ``None`` once the stream ends or
        #: :meth:`stop` runs.
        self._pending: Optional[Event] = None
        self._schedule_next()

    def select(self) -> int:
        """The machine index receiving the arrival that just fired."""
        raise NotImplementedError

    def _gap_stream(self):
        """Interarrival gaps: the configured arrival process, or the
        default homogeneous Poisson stream at :attr:`rate`."""
        if self.arrivals is None:
            while True:
                yield float(self._rng.exponential(1.0 / self.rate))
        else:
            yield from self.arrivals.gaps(self._rng)

    def _schedule_next(self) -> None:
        gap = next(self._gaps, None)
        self._pending = None if gap is None else self.fleet.sim.schedule(gap, self._arrive)

    def _arrive(self) -> None:
        index = self.select()
        self.fleet._close_gap(index)
        self.servers[index].submit_request()
        self.routed[index] += 1
        self._metric_routed.inc()
        self._metric_placement[index].inc()
        self._schedule_next()

    def stop(self) -> None:
        """Stop generating arrivals."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._gaps.close()

    @property
    def total_routed(self) -> int:
        return sum(self.routed)


class RoundRobinBalancer(Balancer):
    """Dispatches the fleet-level arrival stream round-robin."""

    policy_name = "round-robin"

    def __init__(
        self,
        fleet: FleetMachine,
        servers: Sequence[WebServer],
        *,
        rate: float,
        rng: np.random.Generator,
        arrivals: Optional[ArrivalProcess] = None,
    ):
        super().__init__(fleet, servers, rate=rate, rng=rng, arrivals=arrivals)
        self._next = 0

    def select(self) -> int:
        index = self._next
        self._next = (index + 1) % len(self.servers)
        return index

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

Routing goes through the target node's
:class:`~repro.fleet.machine._NodeSimView` (a zero-delay scheduled
callback), so the node's physics gap closes before the request mutates
its queues — arrivals are node events like any other.

Telemetry: ``fleet.balancer.routed`` counts total dispatches and
``fleet.placement.m<j>`` counts arrivals per machine; the per-machine
counters always sum to the total (pinned by tests).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..sim.process import Process
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
        self._process = Process(fleet.sim, self._arrival_loop())

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

    def _arrival_loop(self):
        for gap in self._gap_stream():
            yield gap
            index = self.select()
            # Zero-delay hop through the node's sim view: the node's
            # physics gap closes before the server sees the request.
            self.fleet.nodes[index].sim.schedule(
                0.0, self.servers[index].submit_request
            )
            self.routed[index] += 1
            self._metric_routed.inc()
            self._metric_placement[index].inc()

    def stop(self) -> None:
        """Stop generating arrivals."""
        self._process.stop()

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

"""Temperature-aware arrival placement (the inter-chip dual of §3.6).

Dimetrodon defers work *locally* — a hot core runs idle cycles and the
deferred work heats the same die later.  A cluster scheduler has a
second option the paper's single-machine view cannot express: place the
work somewhere cool in the first place.  :class:`ThermalBalancer`
implements the two classic placement rules from Chrobak et al.,
"Temperature-Aware Task Scheduling in Microprocessor Systems":

- **coolest-first** — every arrival goes to the machine with the most
  thermal headroom (the lowest sampled temperature);
- **threshold** — machines below a temperature threshold are treated as
  interchangeable and receive arrivals round-robin; only when the whole
  rack is hot does placement degrade to coolest-first.  (This is the
  paper family's "cool/hot" bucket rule: it avoids herding every
  arrival onto one momentarily-cool machine.)

Temperatures come from each node's *sampled* telemetry
(:meth:`~repro.instruments.templog.TemperatureLog.latest`), not from
the physics oracle.  That is both realistic — a front door polls
management-plane sensors, it does not halt servers to read junction
temperatures — and load-bearing for reproducibility: sampled reads do
not force pending physics to integrate, so a ThermalBalancer run's
substep structure is *identical* to a RoundRobinBalancer run's.  With
uniform temperatures the cyclic tie-break below reproduces round-robin
routing exactly, making the whole fleet bit-identical to a
round-robin rack (pinned by tests/test_fleet_scheduling.py).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ...errors import ConfigurationError
from ...health import FleetHealth, HealthState
from ...workloads.loadshapes import ArrivalProcess
from ...workloads.webserver import WebServer
from ..balancer import Balancer, RoundRobinBalancer
from ..machine import FleetMachine

#: Temperatures within this many °C of the minimum count as tied.
TIE_EPSILON = 1e-9

#: The placement strategies ThermalBalancer knows.
STRATEGIES = ("coolest", "threshold")


def sampled_machine_temps(fleet: FleetMachine) -> np.ndarray:
    """Per-machine mean core temperature from the latest sensor sample.

    A machine whose temperature log has no sample yet (only possible
    before simulated time zero's first poll) reads as the fleet-wide
    idle baseline — the value its first sample would report.
    Reading is side-effect free: no gap closing, no physics drain.
    """
    idle = fleet.idle_mean_temp
    temps = np.empty(fleet.num_machines)
    for j, node in enumerate(fleet.nodes):
        sample = node.templog.latest()
        temps[j] = idle if sample is None else float(np.mean(sample))
    return temps


class ThermalBalancer(Balancer):
    """Routes arrivals by per-machine sampled temperature.

    Parameters (beyond :class:`~repro.fleet.balancer.Balancer`'s)
    ----------
    strategy:
        ``"coolest"`` or ``"threshold"`` (see module docstring).
    threshold:
        Absolute temperature (°C) separating cool from hot machines.
        Required for the threshold strategy, ignored otherwise.
    temperature_source:
        Override for the per-machine temperature read — a callable
        returning one value per machine.  Defaults to
        :func:`sampled_machine_temps`; tests inject constant sources to
        pin the uniform-temperature ⇒ round-robin equivalence.

    Ties (and the threshold strategy's cool bucket) resolve cyclically:
    among candidate machines, the first one at or after the previous
    choice wins.  With every machine tied this *is* round-robin.
    """

    policy_name = "thermal"

    def __init__(
        self,
        fleet: FleetMachine,
        servers: Sequence[WebServer],
        *,
        rate: float,
        rng: np.random.Generator,
        strategy: str = "coolest",
        threshold: Optional[float] = None,
        temperature_source: Optional[Callable[[], Sequence[float]]] = None,
        arrivals: Optional[ArrivalProcess] = None,
    ):
        if strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown placement strategy {strategy!r} "
                f"(known: {', '.join(STRATEGIES)})"
            )
        if strategy == "threshold" and threshold is None:
            raise ConfigurationError(
                "the threshold strategy needs a temperature threshold (°C)"
            )
        super().__init__(fleet, servers, rate=rate, rng=rng, arrivals=arrivals)
        self.strategy = strategy
        self.threshold = None if threshold is None else float(threshold)
        self._read_temps = (
            temperature_source
            if temperature_source is not None
            else lambda: sampled_machine_temps(self.fleet)
        )
        self._next = 0

    def machine_temps(self) -> np.ndarray:
        """The temperatures the next placement decision would see."""
        return np.asarray(self._read_temps(), dtype=float)

    def select(self) -> int:
        temps = self.machine_temps()
        if temps.shape[0] != len(self.servers):
            raise ConfigurationError(
                f"temperature source returned {temps.shape[0]} values for "
                f"{len(self.servers)} machines"
            )
        if self.strategy == "threshold":
            candidates = np.flatnonzero(temps <= self.threshold)
            if candidates.size == 0:
                candidates = self._coolest_set(temps)
        else:
            candidates = self._coolest_set(temps)
        return self._cyclic_pick(candidates)

    @staticmethod
    def _coolest_set(temps: np.ndarray) -> np.ndarray:
        return np.flatnonzero(temps <= temps.min() + TIE_EPSILON)

    def _cyclic_pick(self, candidates: np.ndarray) -> int:
        """The first candidate at or after the round-robin cursor."""
        following = candidates[candidates >= self._next]
        chosen = int(following[0] if following.size else candidates[0])
        self._next = (chosen + 1) % len(self.servers)
        return chosen


class AlertDrainBalancer(RoundRobinBalancer):
    """Round-robin placement that drains machines in CRITICAL.

    The ``alert-reactive`` policy's front door: arrivals cycle the rack
    as usual, but any machine whose health monitor currently classifies
    it CRITICAL is skipped — its placement weight drains to the rest of
    the rack until the monitor's hysteresis re-arms.  When *every*
    machine is critical there is nowhere cool to drain to and placement
    degrades to plain round-robin (shedding load entirely is a policy
    decision this simulator does not take for you).

    Like :class:`ThermalBalancer`, decisions read only management-plane
    state (the monitors' latest classification, itself derived from
    quantised sensor samples) — never the physics oracle.  With no
    machine critical the cursor walk is exactly round-robin.
    """

    policy_name = "alert-drain"

    def __init__(
        self,
        fleet: FleetMachine,
        servers: Sequence[WebServer],
        *,
        rate: float,
        rng: np.random.Generator,
        health: FleetHealth,
        arrivals: Optional[ArrivalProcess] = None,
    ):
        if len(health) != len(servers):
            raise ConfigurationError(
                f"alert-drain balancer got {len(health)} monitors for "
                f"{len(servers)} machines"
            )
        super().__init__(fleet, servers, rate=rate, rng=rng, arrivals=arrivals)
        self.health = health
        #: Arrivals that skipped at least one critical machine.
        self.drained = 0

    def select(self) -> int:
        count = len(self.servers)
        for offset in range(count):
            index = (self._next + offset) % count
            if self.health[index].state is not HealthState.CRITICAL:
                if offset:
                    self.drained += 1
                self._next = (index + 1) % count
                return index
        return super().select()  # whole rack critical: no drain target

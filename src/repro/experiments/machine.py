"""The assembled testbed: chip + thermal + scheduler + instruments.

A :class:`Machine` is the simulated equivalent of the paper's 1U server
(§3.2).  It wires the discrete-event simulator to the physics: every
time the simulated clock advances, the thermal network is integrated
over the elapsed interval with the chip's current per-core power state,
splitting at C-state promotion instants so idle power is time-accurate.

The machine starts from *thermal equilibrium at idle* — the paper's
baseline "idle temperature" — so temperature-rise metrics are
well-defined from t = 0.

The server itself — chip, idle injector, scheduler, control interface,
instruments, health monitor and readouts — is :class:`ServerStack`,
shared with the fleet's :class:`repro.fleet.machine.FleetNode`; the
two differ only in how physics reaches the stack's temperature source
(eager integration here, deferred cohort integration in a fleet).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from ..core.injector import IdleInjector, IdleMode
from ..cpu.chip import Chip
from ..cpu.power import PowerCoefficients
from ..errors import ConfigurationError
from ..health import HealthMonitor, HealthParams
from ..instruments.powermeter import PowerMeter
from ..instruments.templog import TemperatureLog
from ..sched.scheduler import Scheduler
from ..sched.syscalls import DimetrodonControl
from ..sim.engine import Simulator
from ..sim.rng import RngRegistry
from ..thermal.floorplan import build_network
from ..thermal.rcnetwork import ThermalIntegrator, ThermalNetwork
from ..thermal.sensors import SensorBank
from .config import ExperimentConfig


def long_idle_chip(config: ExperimentConfig) -> Chip:
    """A chip built from ``config`` whose cores have been idle for a
    long time, so every core starts in its deepest C-state."""
    chip = Chip(
        config.power,
        num_cores=config.num_cores,
        smt=config.smt,
        cstate_params=config.cstates,
        c1e_enabled=config.c1e_enabled,
    )
    for core in chip.cores:
        core.set_idle(-1e6)
    return chip


def idle_equilibrium(config: ExperimentConfig, network: ThermalNetwork) -> np.ndarray:
    """Node temperatures (°C) of ``network`` settled under a long-idle
    chip's power: the idle baseline every server starts from.

    The settle runs on a probe chip, never a server's own, so it sees
    the chip long-idle whatever the server's scheduler does at start.
    """
    probe = ThermalIntegrator(network, max_substep=config.thermal.max_substep)
    _, idle_power_fn = long_idle_chip(config).power_function(time=0.0)
    return probe.settle(idle_power_fn)


class ServerStack:
    """One server's OS stack, instruments and readouts.

    ``sim`` is the simulator surface the server schedules on (``now``,
    ``schedule``, ``schedule_at``); ``temps()`` returns its node
    temperatures (°C) with physics integrated up to ``sim.now``;
    ``index`` is its place in a rack (0 standalone), tagging health
    alerts.  Construction order and RNG stream names are fixed here
    once, so every server built from one config produces the same
    event stream whichever physics drives it.  The subclass wires its
    physics before calling in: the scheduler starts here, last.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        sim,
        temps: Callable[[], np.ndarray],
        idle_core_temps: np.ndarray,
        *,
        idle_mode: IdleMode,
        co_schedule_smt: bool,
        index: int = 0,
    ):
        self.config = cfg = config
        self.sim = sim
        self.index = index
        self._temps = temps
        #: Per-core idle temperatures — the paper's baseline, °C.
        self.idle_core_temps = idle_core_temps
        self.rng = RngRegistry(cfg.seed)
        self.chip = long_idle_chip(cfg)

        # --- OS and Dimetrodon ----------------------------------------
        self.injector = IdleInjector(mode=idle_mode, co_schedule_smt=co_schedule_smt)
        if cfg.scheduler_queue == "ule":
            from ..sched.ule import UleRunqueue

            runqueue = UleRunqueue(num_cores=cfg.num_cores)
        elif cfg.scheduler_queue == "bsd":
            runqueue = None  # Scheduler builds the default 4.4BSD MLFQ
        else:
            raise ConfigurationError(
                f"unknown scheduler_queue {cfg.scheduler_queue!r} (bsd|ule)"
            )
        self.scheduler = Scheduler(
            sim,
            self.chip,
            quantum=cfg.quantum,
            context_switch_cost=cfg.context_switch_cost,
            injector=self.injector,
            runqueue=runqueue,
        )
        self.control = DimetrodonControl(self.scheduler, rng=self.rng.stream("inject"))

        # --- instruments ----------------------------------------------
        meter_rng = self.rng.stream("clamp") if cfg.clamp_gain_error > 0 else None
        self.powermeter = PowerMeter(
            clamp_gain_error=cfg.clamp_gain_error, rng=meter_rng
        )
        core_nodes = list(range(cfg.num_cores))
        if cfg.noisy_sensors:
            self.sensors = SensorBank.coretemp(core_nodes, self.rng.stream("sensors"))
        else:
            self.sensors = SensorBank.ideal(core_nodes)
        self.templog = TemperatureLog(
            sim,
            lambda: self.sensors.read(temps()),
            period=cfg.temp_sample_period,
            num_cores=cfg.num_cores,
        )

        #: Optional thermal health monitor (see :meth:`attach_health`).
        self.health: Optional[HealthMonitor] = None
        self.scheduler.start()

    # ------------------------------------------------------------------
    # Health monitoring
    # ------------------------------------------------------------------
    def attach_health(
        self, params: Optional[HealthParams] = None
    ) -> HealthMonitor:
        """Attach a thermal health monitor to this server.

        The monitor samples through its own quantised (optionally
        noisy) :class:`~repro.thermal.sensors.SensorBank` — never the
        true integrator state — and classifies against thresholds
        pinned to this server's idle baseline.  Noisy monitors draw
        from the dedicated ``"health-sensors"`` RNG stream, so monitor
        reads never perturb the temperature log's noise sequence and
        identical seeds reproduce identical alert streams.  Call once;
        the monitor is also exposed as :attr:`health`.
        """
        if self.health is not None:
            raise ConfigurationError("health monitor already attached")
        params = params or HealthParams()
        core_nodes = list(range(self.config.num_cores))
        rng = self.rng.stream("health-sensors") if params.noisy else None
        self.health = HealthMonitor(
            self.sim,
            params.sensor_bank(core_nodes, rng),
            self._temps,
            thresholds=params.thresholds(self.idle_mean_temp),
            period=params.period,
            machine=self.index,
        )
        return self.health

    # ------------------------------------------------------------------
    # Physics pieces
    # ------------------------------------------------------------------
    def power_pieces(
        self, t0: float, t1: float
    ) -> Iterator[Tuple[float, float, PowerCoefficients]]:
        """The physics pieces of [t0, t1] as ``(start, duration,
        coefficients)``, split at C-state promotion instants, with each
        piece's C-state residency accounted.

        Walks the chip's segment horizons: the segment in effect at a
        piece's start holds until the next promotion instant after it,
        which ends the piece (or ``t1`` does).  A piece that starts on
        a promotion instant sees that core promoted, because C-states
        are classified against the very float the horizon reports.
        """
        chip = self.chip
        a = t0
        while a < t1:
            cstates, coefficients, horizon = chip.power_segment(a)
            b = horizon if horizon < t1 else t1
            chip.record_residency(cstates, b - a)
            yield a, b - a, coefficients
            a = b

    # ------------------------------------------------------------------
    # Convenience measurements
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def core_temps(self) -> np.ndarray:
        """Current true per-core temperatures, °C."""
        return self._temps()[: self.config.num_cores].copy()

    @property
    def idle_mean_temp(self) -> float:
        """Mean per-core idle (baseline) temperature, °C."""
        return float(np.mean(self.idle_core_temps))

    def mean_core_temp_over_window(self, window: Optional[float] = None) -> float:
        """Mean core temperature over the trailing window (default: the
        config's measurement window — the paper's last-30 s average)."""
        if window is None:
            window = self.config.measure_window
        elif window <= 0:
            raise ConfigurationError(f"averaging window must be positive, got {window}")
        return self.templog.mean_over_window(window)

    def temp_rise_over_idle(self, window: Optional[float] = None) -> float:
        """Mean core temperature rise over the idle baseline, °C."""
        return self.mean_core_temp_over_window(window) - self.idle_mean_temp

    def total_work_done(self) -> float:
        """Total useful work completed by all threads, CPU-seconds."""
        return sum(t.stats.work_done for t in self.scheduler.threads)

    def energy(self, start: float = -np.inf, end: float = np.inf) -> float:
        """Package energy over [start, end], J."""
        self._temps()  # brings physics, and so the meter, up to now
        return self.powermeter.energy(start, end)


class Machine(ServerStack):
    """A fully wired simulated server, integrating its physics eagerly."""

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        *,
        idle_mode: IdleMode = IdleMode.HALT,
        co_schedule_smt: bool = False,
    ):
        config = config or ExperimentConfig()
        self.network = build_network(config.thermal, config.num_cores)
        self.integrator = ThermalIntegrator(
            self.network,
            initial_temps=idle_equilibrium(config, self.network),
            max_substep=config.thermal.max_substep,
        )
        sim = Simulator()
        sim.add_advance_listener(self._advance_physics)
        super().__init__(
            config,
            sim,
            lambda: self.integrator.temps,
            self.integrator.temps[: config.num_cores].copy(),
            idle_mode=idle_mode,
            co_schedule_smt=co_schedule_smt,
        )

    def _advance_physics(self, t0: float, t1: float) -> None:
        """Integrate thermals over [t0, t1], piece by piece."""
        integrator, powermeter = self.integrator, self.powermeter
        for start, duration, coefficients in self.power_pieces(t0, t1):
            result = integrator.advance_coefficients(duration, coefficients)
            powermeter.record_segment(start, duration, result.average_power)

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` seconds."""
        self.sim.run(until=self.sim.now + duration)

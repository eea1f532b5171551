"""Fleet-scale simulation: racks of servers on one event queue with
structure-of-arrays batched physics.

- :class:`~repro.fleet.machine.FleetMachine` — N fully wired servers
  (chip, scheduler, injector, instruments each) whose thermal states
  advance together through one
  :class:`~repro.thermal.rcnetwork.FleetThermalIntegrator`;
- :class:`~repro.fleet.balancer.RoundRobinBalancer` — Poisson request
  arrivals spread round-robin over per-machine web servers;
- :mod:`~repro.fleet.scheduling` — thermal-aware placement and costed
  inter-chip migration policies (:func:`build_policy` registry);
- :func:`~repro.fleet.experiment.fleet_experiment` — the ``fleet`` CLI
  experiment: a datacenter rack serving the §3.7 web workload with and
  without idle injection, under a selectable scheduling policy;
- :func:`~repro.fleet.compare.fleet_compare_experiment` — the
  ``fleet-compare`` CLI experiment: Dimetrodon vs DVFS vs TCC vs
  placement vs migration on identical racks (fig4 at fleet scale);
- :func:`~repro.fleet.scenarios.scenarios_experiment` — the
  ``scenarios`` CLI experiment: injection probability × load shape
  (diurnal/surge/bursty/trace) × policy, scored with the windowed SLO
  scorer (see docs/scenarios.md);
- :mod:`~repro.fleet.cells` — the one rack path the three experiments
  share: each is a :class:`~repro.fleet.cells.RackGrid` of independent
  rack cells (build, run and measure one rack:
  :func:`~repro.fleet.cells.run_rack_cell`) executed through the
  :mod:`repro.runtime` pool/cache/journal stack (``--jobs``,
  ``--cache-dir``, ``--resume``, ``--keep-going``), bit-identical to a
  serial loop.

See docs/fleet.md for the architecture and equivalence guarantees.
"""

from .balancer import Balancer, RoundRobinBalancer
from .cells import (
    SCENARIO_SHAPES,
    RackCellResult,
    build_scenario_arrivals,
    rack_cell_spec,
    run_rack_cell,
)
from .compare import FleetCompareResult, fleet_compare_experiment
from .experiment import FleetResult, fleet_experiment
from .machine import FleetMachine, FleetNode
from .scenarios import ScenariosResult, scenarios_experiment
from .scheduling import (
    POLICY_NAMES,
    CacheAwareMigrationPolicy,
    MigrationCostModel,
    MigrationPolicy,
    PolicyBundle,
    ThermalBalancer,
    build_policy,
)

__all__ = [
    "Balancer",
    "CacheAwareMigrationPolicy",
    "FleetCompareResult",
    "FleetMachine",
    "FleetNode",
    "FleetResult",
    "MigrationCostModel",
    "MigrationPolicy",
    "POLICY_NAMES",
    "PolicyBundle",
    "RackCellResult",
    "RoundRobinBalancer",
    "SCENARIO_SHAPES",
    "ScenariosResult",
    "ThermalBalancer",
    "build_policy",
    "build_scenario_arrivals",
    "fleet_compare_experiment",
    "fleet_experiment",
    "rack_cell_spec",
    "run_rack_cell",
    "scenarios_experiment",
]

"""perfbench reaches into the program by name: its tracer wraps layer
entry points and its set-up and timing patch methods and module
functions through ``owner.__dict__[name]``.  A refactor that removes,
renames or inherits one of those names breaks the benchmark; these
tests make it break here first."""

from pathlib import Path

import pytest

from repro.telemetry import isolated
from repro.telemetry.registry import registry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import suite

    return layers, suite


def test_tracer_installs_and_restores_every_hook(perfbench):
    layers, _ = perfbench
    from repro.experiments.machine import Machine
    from repro.thermal.rcnetwork import ThermalIntegrator, ThermalNetwork
    from repro.workloads.webserver import WebServer

    hooks = [
        (ThermalNetwork, "step_kernel"),
        (ThermalIntegrator, "advance_coefficients"),
        (WebServer, "_arrive"),
        (Machine, "run"),
    ]
    originals = [owner.__dict__[name] for owner, name in hooks]
    tracer = layers.Tracer(registry)
    try:
        layers.install(tracer)  # KeyError if a target left its owner's __dict__
        assert all(owner.__dict__[name] is not fn for (owner, name), fn in zip(hooks, originals))
    finally:
        tracer.close()
    assert [owner.__dict__[name] for owner, name in hooks] == originals


def test_set_up_and_timing_patch_targets_exist(perfbench):
    _, suite = perfbench
    from repro.fleet import cells, scenarios
    from repro.workloads.webserver import WebServer

    # set_up patches run_cells in both modules, and server1's pass
    # patches the server's constructor.
    for owner, name in ((cells, "run_cells"), (scenarios, "run_cells"), (WebServer, "__init__")):
        assert name in owner.__dict__, f"{owner.__name__}.{name}"
    with isolated():
        with suite.timed_simulations() as simulations:
            assert simulations() == []
        for workload in suite.WORKLOADS.values():
            suite.set_up(workload, 0)

"""Tests for the ULE-flavoured runqueue and the §3.1 generality claim."""

import pytest

from repro.core.models import predicted_runtime
from repro.errors import SchedulerError
from repro.experiments import Machine, fast_config
from repro.sched import Thread, ThreadState, UleRunqueue
from repro.workloads import CpuBurn, DutyCycledBurn, FiniteCpuBurn


def ready(name="t", affinity=None):
    thread = Thread(CpuBurn(), name=name)
    thread.state = ThreadState.READY
    thread.affinity = affinity
    return thread


# ----------------------------------------------------------------------
# Queue mechanics
# ----------------------------------------------------------------------
def test_validation():
    with pytest.raises(SchedulerError):
        UleRunqueue(num_cores=0)


def test_enqueue_dequeue_roundtrip():
    q = UleRunqueue(num_cores=2)
    t = ready()
    q.enqueue(t)
    assert t in q
    assert len(q) == 1
    assert q.dequeue(0) is t
    assert len(q) == 0


def test_requires_ready_state_and_no_double_enqueue():
    q = UleRunqueue(num_cores=2)
    t = Thread(CpuBurn())
    with pytest.raises(SchedulerError):
        q.enqueue(t)
    t.state = ThreadState.READY
    q.enqueue(t)
    with pytest.raises(SchedulerError):
        q.enqueue(t)


def test_cache_affinity_placement():
    """A thread re-enqueues on the CPU it last ran on."""
    q = UleRunqueue(num_cores=4)
    t = ready()
    q.enqueue(t)
    assert q.dequeue(2) is t  # ran on CPU 2 (may have stolen this once)
    steals_before = q.steals
    t.state = ThreadState.READY
    q.enqueue(t)
    # Re-enqueued on its home CPU: CPU 2 gets it without stealing.
    assert q.dequeue(2) is t
    assert q.steals == steals_before


def test_work_stealing():
    q = UleRunqueue(num_cores=2)
    a, b = ready("a"), ready("b")
    q.enqueue(a)
    q.enqueue(b)
    # Drain both from CPU 1: at least one must be stolen from CPU 0.
    got = {q.dequeue(1), q.dequeue(1)}
    assert got == {a, b}
    assert q.steals >= 1


def test_affinity_respected_even_when_stealing():
    q = UleRunqueue(num_cores=2)
    pinned = ready("pinned", affinity=0)
    q.enqueue(pinned)
    assert q.dequeue(1) is None  # CPU 1 may not steal a CPU-0 thread
    assert q.dequeue(0) is pinned


def test_interactive_threads_jump_batch_backlog():
    q = UleRunqueue(num_cores=1)
    batch = ready("batch")
    q.on_quantum_expired(batch)
    q.enqueue(batch)
    sleeper = ready("sleeper")
    q.on_wakeup(sleeper)
    q.enqueue(sleeper)
    assert q.dequeue(0) is sleeper


def test_remove():
    q = UleRunqueue(num_cores=2)
    t = ready()
    q.enqueue(t)
    assert q.remove(t) is True
    assert q.remove(t) is False
    assert len(q) == 0


def test_iteration():
    q = UleRunqueue(num_cores=2)
    a, b = ready("a"), ready("b")
    q.enqueue(a)
    q.enqueue(b)
    assert {t.name for t in q} == {"a", "b"}


# ----------------------------------------------------------------------
# The §3.1 footnote: "the mechanism generalizes to ULE"
# ----------------------------------------------------------------------
def ule_machine():
    return Machine(fast_config().scaled(scheduler_queue="ule"))


def test_machine_builds_with_ule():
    machine = ule_machine()
    assert isinstance(machine.scheduler.runqueue, UleRunqueue)


def test_unknown_queue_rejected():
    from repro.errors import ConfigurationError
    from repro.fleet import FleetMachine

    config = fast_config().scaled(scheduler_queue="cfs")
    with pytest.raises(ConfigurationError, match="unknown scheduler_queue"):
        Machine(config)
    with pytest.raises(ConfigurationError, match="unknown scheduler_queue"):
        FleetMachine(config, machines=2)


def test_ule_runs_parallel_threads():
    machine = ule_machine()
    threads = [machine.scheduler.spawn(FiniteCpuBurn(1.0)) for _ in range(4)]
    machine.run(2.0)
    assert all(not t.alive for t in threads)
    assert max(t.stats.exit_time for t in threads) < 1.05


def test_dimetrodon_model_holds_under_ule():
    """Idle injection behaves identically under ULE: D(t) still holds."""
    machine = ule_machine()
    machine.control.set_global_policy(0.5, 0.05, deterministic=True)
    t = machine.scheduler.spawn(FiniteCpuBurn(1.0))
    while t.alive and machine.now < 10.0:
        machine.run(0.5)
    predicted = predicted_runtime(1.0, machine.config.quantum, 0.5, 0.05)
    assert predicted - 0.06 <= t.stats.exit_time <= predicted * 1.01


def test_ule_and_bsd_reach_same_temperatures():
    """The thermal outcome is queue-discipline independent for the
    symmetric cpuburn workload."""

    def run(queue):
        machine = Machine(fast_config().scaled(scheduler_queue=queue))
        machine.control.set_global_policy(0.5, 0.025)
        for _ in range(4):
            machine.scheduler.spawn(CpuBurn())
        machine.run(60.0)
        return machine.mean_core_temp_over_window(10.0)

    assert run("ule") == pytest.approx(run("bsd"), abs=1.0)


def test_ule_sleep_wake_cycle():
    machine = ule_machine()
    workload = DutyCycledBurn(burn_time=0.2, sleep_time=0.3, iterations=3)
    t = machine.scheduler.spawn(workload)
    machine.run(3.0)
    assert workload.completed_iterations == 3

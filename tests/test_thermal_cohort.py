"""Property tests for mixed-duration cohorts of the fleet integrator.

``FleetThermalIntegrator.advance_machines`` advances every machine of a
cohort by its own duration (its own substep count and length).  These
properties pin it against:

- sequential single-machine calls (≤1e-9 °C, 1e-9 relative energy);
- energy balance: injected = conducted to ambient + stored, with the
  ambient flux integrated independently from ``scipy.linalg.expm``;
- convergence to :meth:`ThermalNetwork.steady_state` under constant
  power.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from repro.cpu.power import FleetCoefficients, PowerCoefficients
from repro.errors import ConfigurationError
from repro.thermal.floorplan import build_network
from repro.thermal.params import fast
from repro.thermal.rcnetwork import FleetThermalIntegrator

TEMP_TOL_C = 1e-9
ENERGY_RTOL = 1e-9
NETWORK = build_network(fast(), 4)
NODES = NETWORK.num_nodes


def _columns(rng: np.random.Generator, count: int, leak: bool = True):
    """Random per-machine power decompositions sharing the leakage
    constants (as homogeneous chips do)."""
    return [
        PowerCoefficients(
            base=rng.uniform(0.0, 25.0, NODES),
            leak_coef=rng.uniform(0.0, 3.0, NODES) if leak else np.zeros(NODES),
            leak_ref_temp=58.0,
            leak_t_slope=11.5,
            leak_exp_cap=0.7,
        )
        for _ in range(count)
    ]


cohorts = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),  # RNG seed
    st.integers(min_value=2, max_value=9),  # cohort width
    st.booleans(),  # lockstep: one duration for every machine
)


@settings(max_examples=40, deadline=None)
@given(cohort=cohorts)
def test_mixed_cohort_matches_sequential_advances(cohort):
    seed, width, lockstep = cohort
    rng = np.random.default_rng(seed)
    machines = [int(j) for j in rng.permutation(width + 2)[:width]]
    columns = _columns(rng, width)
    if lockstep:
        durations = np.full(width, rng.uniform(1e-5, 0.03))
    else:
        durations = rng.uniform(1e-5, 0.03, width)
    _assert_matches_sequential(rng, machines, durations, columns)


def test_equal_steps_with_different_substep_counts_match_sequential():
    """Whole multiples of ``max_substep`` share one step length but not
    one substep count: each column must still stop after its own."""
    rng = np.random.default_rng(7)
    durations = np.array([1.0, 3.0, 2.0, 3.0]) * 5e-3
    _assert_matches_sequential(rng, [3, 0, 4, 1], durations, _columns(rng, 4))


def _assert_matches_sequential(rng, machines, durations, columns):
    rows = max(machines) + 1
    initial = rng.uniform(30.0, 90.0, (rows, NODES))
    cohort_fleet = FleetThermalIntegrator(NETWORK, rows, initial_temps=initial)
    serial_fleet = FleetThermalIntegrator(NETWORK, rows, initial_temps=initial)

    energies = cohort_fleet.advance_machines(
        machines, durations, FleetCoefficients.from_coefficients(columns)
    )
    for j, duration, column, energy in zip(machines, durations, columns, energies):
        (expected,) = serial_fleet.advance_machines(
            [j], float(duration), FleetCoefficients.from_coefficients([column])
        )
        assert energy == pytest.approx(expected, rel=ENERGY_RTOL)
    assert np.max(np.abs(cohort_fleet.temps - serial_fleet.temps)) <= TEMP_TOL_C


def _ambient_flux(temps, power, duration):
    """Heat conducted to ambient over ``duration`` from ``temps`` under
    frozen ``power``, from the exact solution T(t) = T_ss + expm(At)
    (T0 - T_ss): the integral of g_amb·(T - T_amb) dt."""
    a_matrix = -NETWORK._laplacian / NETWORK.capacitances[:, None]
    t_ss = NETWORK.steady_state(power)
    decay = np.linalg.solve(a_matrix, expm(a_matrix * duration) - np.eye(NODES))
    excess = (t_ss - NETWORK.ambient_temp) * duration + decay @ (temps - t_ss)
    return float(NETWORK.ambient_conductances @ excess)


@settings(max_examples=25, deadline=None)
@given(cohort=cohorts)
def test_mixed_cohort_conserves_energy(cohort):
    """Over many single-substep rounds of mixed lengths, the energy each
    machine takes in equals its stored heat plus what its heatsink
    conducted to ambient.  Durations sit on the 1e-9 s grid kernels
    quantise step lengths to: energy is booked over the unquantised
    step, so off-grid steps would differ by up to 5e-10 s of power."""
    seed, width, lockstep = cohort
    rng = np.random.default_rng(seed)
    columns = _columns(rng, width)
    stack = FleetCoefficients.from_coefficients(columns)
    fleet = FleetThermalIntegrator(
        NETWORK, width, initial_temps=rng.uniform(30.0, 90.0, (width, NODES))
    )
    machines = list(range(width))
    start = fleet.temps.copy()
    injected = np.zeros(width)
    conducted = np.zeros(width)
    for _ in range(30):
        if lockstep:
            durations = np.full(width, rng.uniform(1e-5, fast().max_substep))
        else:
            durations = rng.uniform(1e-5, fast().max_substep, width)
        durations = np.round(durations, 9)
        before = fleet.temps.copy()
        injected += fleet.advance_machines(machines, durations, stack)
        for j in machines:
            power = columns[j].evaluate(before[j])
            conducted[j] += _ambient_flux(before[j], power, durations[j])
    stored = (fleet.temps - start) @ NETWORK.capacitances
    np.testing.assert_allclose(injected, conducted + stored, rtol=ENERGY_RTOL)


@settings(max_examples=20, deadline=None)
@given(cohort=cohorts)
def test_mixed_cohort_converges_to_steady_state(cohort):
    """Under constant power the exponential step is exact, so long
    substeps of mixed lengths land every machine on its equilibrium."""
    seed, width, lockstep = cohort
    rng = np.random.default_rng(seed)
    columns = _columns(rng, width, leak=False)
    stack = FleetCoefficients.from_coefficients(columns)
    fleet = FleetThermalIntegrator(
        NETWORK,
        width,
        initial_temps=rng.uniform(30.0, 90.0, (width, NODES)),
        max_substep=2.0,
    )
    horizon = 40.0 * float(NETWORK.time_constants()[-1])
    rounds = 20
    for _ in range(rounds):
        if lockstep:
            durations = np.full(width, horizon / rounds)
        else:
            durations = rng.uniform(1.0, 2.0, width) * horizon / rounds
        fleet.advance_machines(list(range(width)), durations, stack)
    for j, column in enumerate(columns):
        expected = NETWORK.steady_state(column.base)
        assert np.max(np.abs(fleet.temps[j] - expected)) <= TEMP_TOL_C


def test_cohort_durations_are_validated():
    columns = _columns(np.random.default_rng(0), 2)
    stack = FleetCoefficients.from_coefficients(columns)
    fleet = FleetThermalIntegrator(NETWORK, 3)
    for bad in (0.0, [0.01, -0.01], [0.01, float("nan")], [0.01, 0.01, 0.01]):
        with pytest.raises(ConfigurationError):
            fleet.advance_machines([0, 1], bad, stack)
    with pytest.raises(ConfigurationError):
        fleet.advance_machines([0, 1, 2], 0.01, stack)

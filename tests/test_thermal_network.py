"""Unit and property tests for the RC thermal network."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.thermal import ThermalNetwork, ThermalParams, build_network, default


def two_node_network(ambient=25.0):
    """A core (node 0) coupled to a sink (node 1) coupled to ambient."""
    conductances = np.array([[0.0, 2.0], [2.0, 0.0]])
    return ThermalNetwork(
        capacitances=[0.1, 10.0],
        conductances=conductances,
        ambient_conductances=[0.0, 4.0],
        ambient_temp=ambient,
        node_names=["core", "sink"],
    )


def test_zero_power_steady_state_is_ambient():
    net = two_node_network(ambient=30.0)
    temps = net.steady_state(np.zeros(2))
    assert np.allclose(temps, 30.0)


def test_steady_state_matches_hand_computation():
    net = two_node_network(ambient=25.0)
    # 8 W into the core: sink rise = 8/4 = 2 K, core rise = 2 + 8/2 = 6 K.
    temps = net.steady_state(np.array([8.0, 0.0]))
    assert temps[1] == pytest.approx(27.0)
    assert temps[0] == pytest.approx(31.0)


def test_steady_state_superposition():
    net = two_node_network()
    t1 = net.steady_state(np.array([5.0, 0.0])) - net.ambient_temp
    t2 = net.steady_state(np.array([0.0, 3.0])) - net.ambient_temp
    t12 = net.steady_state(np.array([5.0, 3.0])) - net.ambient_temp
    assert np.allclose(t1 + t2, t12)


def test_thermal_resistance_symmetry():
    net = build_network(default(), num_cores=4)
    # Reciprocity of the resistance matrix for a symmetric Laplacian.
    for i in range(net.num_nodes):
        for j in range(net.num_nodes):
            assert net.thermal_resistance(i, j) == pytest.approx(
                net.thermal_resistance(j, i)
            )


def test_node_index_lookup():
    net = build_network(default(), num_cores=2)
    assert net.node_index("core0") == 0
    assert net.node_index("spreader") == 2
    assert net.node_index("sink") == 3
    with pytest.raises(ConfigurationError):
        net.node_index("nope")


def test_time_constants_sorted_and_positive():
    net = build_network(default(), num_cores=4)
    taus = net.time_constants()
    assert np.all(taus > 0)
    assert np.all(np.diff(taus) >= 0)


def test_default_network_has_separated_time_scales():
    """Die must cool orders of magnitude faster than the heatsink."""
    net = build_network(default(), num_cores=4)
    taus = net.time_constants()
    assert taus[0] < 0.1  # die-scale: tens of ms
    assert taus[-1] > 30.0  # sink-scale: tens of seconds


@settings(max_examples=60, deadline=None)
@given(h=st.floats(min_value=0.0, max_value=1.0))
def test_modal_kernel_matches_expm(h):
    """The eigenbasis kernel reproduces the matrix-exponential kernel
    (propagator, power injection and ambient shift) to ≤1e-13."""
    from scipy.linalg import expm

    for net in (two_node_network(), build_network(default(), num_cores=4)):
        n = net.num_nodes
        h9 = float(np.round(h, 9))  # the kernel's own quantisation
        exact = expm(-net._laplacian / net.capacitances[:, None] * h9)
        complement = np.eye(n) - exact
        kernel = net.step_kernel(h)
        assert np.max(np.abs(kernel.propagator - exact)) <= 1e-13
        assert np.max(np.abs(kernel.inject - complement @ net._laplacian_inv)) <= 1e-13
        ambient = complement @ np.full(n, net.ambient_temp)
        assert np.max(np.abs(kernel.ambient_shift - ambient)) <= 1e-13 * net.ambient_temp


def test_propagator_semigroup_property():
    """expm(A(h1+h2)) == expm(A h1) @ expm(A h2)."""
    net = two_node_network()
    e1 = net.propagator(0.003)
    e2 = net.propagator(0.007)
    e3 = net.propagator(0.010)
    assert np.allclose(e1 @ e2, e3)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=0.5),
    b=st.floats(min_value=0.0, max_value=0.5),
)
def test_propagator_semigroup_over_random_steps(a, b):
    """E(a+b) = E(a) E(b) for arbitrary (nanosecond-quantised) steps."""
    a, b = round(a, 9), round(b, 9)
    net = build_network(default(), num_cores=4)
    product = net.propagator(a) @ net.propagator(b)
    assert np.max(np.abs(net.propagator(a + b) - product)) <= 1e-13


def test_rejects_asymmetric_conductances():
    with pytest.raises(ConfigurationError):
        ThermalNetwork(
            capacitances=[1.0, 1.0],
            conductances=np.array([[0.0, 1.0], [2.0, 0.0]]),
            ambient_conductances=[1.0, 0.0],
            ambient_temp=25.0,
        )


def test_rejects_nonpositive_capacitance():
    with pytest.raises(ConfigurationError):
        ThermalNetwork(
            capacitances=[0.0, 1.0],
            conductances=np.zeros((2, 2)),
            ambient_conductances=[1.0, 1.0],
            ambient_temp=25.0,
        )


def test_rejects_no_ambient_path():
    with pytest.raises(ConfigurationError):
        ThermalNetwork(
            capacitances=[1.0],
            conductances=np.zeros((1, 1)),
            ambient_conductances=[0.0],
            ambient_temp=25.0,
        )


def test_rejects_negative_conductance():
    with pytest.raises(ConfigurationError):
        ThermalNetwork(
            capacitances=[1.0, 1.0],
            conductances=np.array([[0.0, -1.0], [-1.0, 0.0]]),
            ambient_conductances=[1.0, 0.0],
            ambient_temp=25.0,
        )


def test_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        ThermalNetwork(
            capacitances=[1.0, 1.0],
            conductances=np.zeros((3, 3)),
            ambient_conductances=[1.0, 1.0],
            ambient_temp=25.0,
        )
    with pytest.raises(ConfigurationError):
        ThermalNetwork(
            capacitances=[1.0, 1.0],
            conductances=np.zeros((2, 2)),
            ambient_conductances=[1.0],
            ambient_temp=25.0,
        )


def test_build_network_node_order():
    net = build_network(default(), num_cores=3)
    assert net.node_names == ["core0", "core1", "core2", "spreader", "sink"]


def test_build_network_rejects_zero_cores():
    with pytest.raises(ConfigurationError):
        build_network(default(), num_cores=0)


@settings(max_examples=30, deadline=None)
@given(
    power=st.floats(min_value=0.0, max_value=200.0),
    ambient=st.floats(min_value=0.0, max_value=50.0),
)
def test_steady_state_above_ambient_property(power, ambient):
    """Any non-negative power leaves every node at or above ambient."""
    params = ThermalParams(room_temp=ambient, case_air_rise=0.0)
    net = build_network(params, num_cores=4)
    vec = np.zeros(net.num_nodes)
    vec[0] = power
    temps = net.steady_state(vec)
    assert np.all(temps >= ambient - 1e-9)


@settings(max_examples=30, deadline=None)
@given(power=st.floats(min_value=0.1, max_value=100.0))
def test_source_node_is_hottest_property(power):
    """The node receiving all the power is the hottest node."""
    net = build_network(default(), num_cores=4)
    vec = np.zeros(net.num_nodes)
    vec[2] = power
    temps = net.steady_state(vec)
    assert np.argmax(temps) == 2

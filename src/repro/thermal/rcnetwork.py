"""Lumped RC thermal network and its integrator.

The chip's thermal behaviour is modelled as a network of nodes, each
with a heat capacity (J/K), connected by thermal conductances (W/K) to
each other and to a fixed-temperature ambient node.  This is the same
abstraction HotSpot uses for architectural thermal simulation, reduced
to the handful of nodes that matter for a lidded quad-core package:
per-core die nodes, a heat-spreader node, and a heatsink node.

The state equation is

    C dT/dt = -G (T - T_amb·1) + P(T)

where ``G`` is the (symmetric, weakly diagonally dominant) conductance
Laplacian including ambient legs, and ``P`` may depend on temperature
through leakage.  Between power-state changes we integrate with the
*exponential Euler* scheme: over a substep ``h`` the power vector is
frozen at its value for the current temperatures and the linear system
is advanced exactly:

    T(t+h) = T_ss + E(h) (T(t) - T_ss),   E(h) = expm(-C^{-1} G h)

This is unconditionally stable, exact for constant power, and the only
error source is the leakage lag over one substep (second order in
``h``).

Step kernels come from the network's eigenbasis.
``C^-1/2 G C^-1/2`` is symmetric, so one ``eigh`` at construction gives
``E(h) = V diag(exp(-λh)) W`` for every ``h``: the fused kernel — the
propagator with its power-injection and ambient companions — is an
``h``-independent base plus the modal weights ``1 - exp(-λh)`` times a
fixed modal matrix.  ``K`` kernels cost one small gemm, so nothing is
cached, however rarely gap lengths repeat.

The integrator has two equivalent paths:

- :meth:`ThermalIntegrator.advance` — the scalar reference oracle: a
  Python power callback re-evaluated per substep plus a
  ``steady_state`` solve.
- :meth:`ThermalIntegrator.advance_coefficients` — the fused fast
  path (:class:`ChipAdvance`): the advance's one kernel is written into
  a preallocated buffer (:meth:`ThermalNetwork.kernel_into`), then per
  substep one gemv plus one vectorized exponential into loop views
  built once per integrator, no per-core Python work.

:class:`FleetThermalIntegrator` generalizes the fused path to ``N``
independent copies of one network (a rack of identical servers): the
whole fleet's temperature state is a single ``(N, nodes)`` array, and
a cohort of machines advances together even when each machine's
interval, and so its substep length, differs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..telemetry.registry import registry as _metrics_registry

if TYPE_CHECKING:  # the integrator only needs its .evaluate() protocol
    from ..cpu.power import PowerCoefficients

#: Power callback: maps node temperatures (°C) to node power inputs (W).
PowerFunction = Callable[[np.ndarray], np.ndarray]


class StepKernel(NamedTuple):
    """Precomputed linear-system kernel for one substep length ``h``.

    Advancing the network by ``h`` under a frozen power vector ``P`` is

        T(t+h) = propagator @ T(t) + inject @ P + ambient_shift

    which is algebraically identical to the steady-state form
    ``T_ss + E(h) (T - T_ss)`` with ``T_ss = T_amb·1 + L⁻¹ P``:
    ``inject = (I − E(h)) L⁻¹`` and ``ambient_shift = (I − E(h)) T_amb·1``.

    ``fused`` is the three blocks stacked as one ``(n, 2n+1)`` matrix
    ``[propagator | inject | ambient_shift]`` so the whole update is a
    single gemv against the stacked state vector ``[T, P, 1]`` — the
    fused integrator's inner loop lives on this.
    """

    propagator: np.ndarray
    inject: np.ndarray
    ambient_shift: np.ndarray
    fused: np.ndarray


class ThermalNetwork:
    """A lumped RC network with a fixed-temperature ambient node.

    Parameters
    ----------
    capacitances:
        Heat capacity of each node, J/K. All must be positive.
    conductances:
        Symmetric ``(n, n)`` matrix of pairwise conductances, W/K.
        ``conductances[i, j]`` is the conductance of the link between
        nodes ``i`` and ``j``; the diagonal is ignored.
    ambient_conductances:
        Per-node conductance to ambient, W/K (0 for internal nodes).
    ambient_temp:
        Ambient temperature, °C.
    node_names:
        Optional human-readable node labels (defaults to ``node{i}``).
    """

    def __init__(
        self,
        capacitances: Sequence[float],
        conductances: np.ndarray,
        ambient_conductances: Sequence[float],
        ambient_temp: float,
        node_names: Optional[Sequence[str]] = None,
    ):
        self.capacitances = np.asarray(capacitances, dtype=float)
        n = self.capacitances.shape[0]
        conductances = np.asarray(conductances, dtype=float)
        self.ambient_conductances = np.asarray(ambient_conductances, dtype=float)
        self.ambient_temp = float(ambient_temp)

        if conductances.shape != (n, n):
            raise ConfigurationError(
                f"conductance matrix shape {conductances.shape} != ({n}, {n})"
            )
        if self.ambient_conductances.shape != (n,):
            raise ConfigurationError("ambient conductance vector has wrong length")
        if np.any(self.capacitances <= 0):
            raise ConfigurationError("all node capacitances must be positive")
        if np.any(conductances < 0) or np.any(self.ambient_conductances < 0):
            raise ConfigurationError("conductances must be non-negative")
        if not np.allclose(conductances, conductances.T):
            raise ConfigurationError("pairwise conductance matrix must be symmetric")
        if np.all(self.ambient_conductances == 0):
            raise ConfigurationError(
                "network has no path to ambient; temperatures would diverge"
            )

        self.node_names: List[str] = (
            list(node_names) if node_names is not None else [f"node{i}" for i in range(n)]
        )
        if len(self.node_names) != n:
            raise ConfigurationError("node_names length mismatch")

        # Laplacian G: off-diagonal -g_ij, diagonal sum of all legs
        # including the ambient leg.
        off = -conductances.copy()
        np.fill_diagonal(off, 0.0)
        diag = conductances.sum(axis=1) - np.diag(conductances) + self.ambient_conductances
        self._laplacian = off + np.diag(diag)
        self._laplacian_inv = np.linalg.inv(self._laplacian)

        # Modal form of the fused kernel.  With S = C^-1/2 G C^-1/2 =
        # Q diag(λ) Qᵀ, I - E(h) = V diag(1 - e^-λh) W for V = C^-1/2 Q
        # and W = Qᵀ C^1/2, so
        #   [E | (I-E) G⁻¹ | (I-E) T_amb·1]
        #     = [I | 0 | 0]
        #       + Σ_k (1 - e^-λ_k h) · v_k ⊗ (w_k [-I | G⁻¹ | T_amb·1])
        # and every kernel is the flat base plus the weights 1 - e^-λh
        # (taken with expm1, exact for small h) times the fixed modal
        # matrix: one gemm builds K kernels.  Each mode's row
        # annihilates the steady state [T_ss, P, 1], so kernels keep
        # equilibria exact however short the step.  Rates and modal
        # matrix are stored negated: base + expm1(-λh) @ (-M) is the
        # same kernel, bit for bit.
        root = np.sqrt(self.capacitances)
        rates, q = np.linalg.eigh(self._laplacian / np.outer(root, root))
        ambient_column = np.full((n, 1), self.ambient_temp)
        tail = np.hstack([-np.eye(n), self._laplacian_inv, ambient_column])
        modes_out = q / root[:, None]  # V, one mode per column
        modes_in = (q * root[:, None]).T @ tail  # W [-I | G⁻¹ | T_amb·1]
        self._neg_rates = -rates
        self._neg_modal = -(modes_out.T[:, :, None] * modes_in[:, None, :]).reshape(n, -1)
        self._modal_base = np.hstack([np.eye(n), np.zeros((n, n + 1))]).ravel()

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.capacitances.shape[0]

    def node_index(self, name: str) -> int:
        """Index of the node called ``name``."""
        try:
            return self.node_names.index(name)
        except ValueError:
            raise ConfigurationError(f"no thermal node named {name!r}") from None

    def steady_state(self, power: np.ndarray) -> np.ndarray:
        """Equilibrium temperatures for a constant power vector (W)."""
        power = np.asarray(power, dtype=float)
        rise = self._laplacian_inv @ power
        return self.ambient_temp + rise

    def thermal_resistance(self, node: int, source: int) -> float:
        """Steady-state K/W at ``node`` per watt injected at ``source``."""
        return float(self._laplacian_inv[node, source])

    def time_constants(self) -> np.ndarray:
        """Sorted (ascending) eigen time-constants of the network, seconds."""
        return np.sort(-1.0 / self._neg_rates)

    def propagator(self, h: float) -> np.ndarray:
        """``expm(A h)`` for step length ``h``."""
        return self.step_kernel(h).propagator

    def step_kernel(self, h: float) -> StepKernel:
        """The fused substep kernel for step length ``h``:
        :meth:`kernel_into` a fresh buffer, with its three blocks as
        views into ``fused``."""
        n = self.num_nodes
        flat = self.kernel_into(h, np.empty((1, n * (2 * n + 1))))
        fused = flat.reshape(n, 2 * n + 1)
        return StepKernel(
            propagator=fused[:, :n],
            inject=fused[:, n : 2 * n],
            ambient_shift=fused[:, 2 * n],
            fused=fused,
        )

    def kernel_into(self, h: float, out: np.ndarray) -> np.ndarray:
        """Write the fused kernel for step length ``h`` into ``out``, a
        ``(1, nodes·(2·nodes+1))`` float array, and return ``out``.

        This is ``step_kernels([h])`` flattened, bit for bit, without
        its array set-up: the same 1e-9 s quantisation on a Python float
        (``round`` and ``np.rint`` both round half to even) and the
        same gemm operand shapes and order.
        """
        quantised = round(h * 1e9) / 1e9
        weights = np.expm1(quantised * self._neg_rates)
        np.matmul(weights[None, :], self._neg_modal, out=out)
        return np.add(self._modal_base, out, out=out)

    def step_kernels(self, steps: Sequence[float]) -> np.ndarray:
        """Fused kernels for ``K`` step lengths at once, shape
        ``(K, nodes, 2·nodes+1)``: one gemm of the modal weights.

        Each step is quantised to 1e-9 s first, so step lengths that
        differ only below a nanosecond get the same kernel.
        """
        n = self.num_nodes
        # np.round(steps, 9), without its dispatch overhead.
        quantised = np.rint(np.asarray(steps, dtype=float) * 1e9) / 1e9
        weights = np.expm1(np.multiply.outer(quantised, self._neg_rates))
        return (self._modal_base + weights @ self._neg_modal).reshape(-1, n, 2 * n + 1)


@dataclass
class AdvanceResult:
    """Outcome of one :meth:`ThermalIntegrator.advance` call."""

    #: Total energy delivered into the network over the interval, J.
    energy: float
    #: Time-averaged total power over the interval, W.
    average_power: float


def substep_count(duration: float, max_substep: float) -> int:
    """Substeps an advance of ``duration`` seconds is cut into:
    ``ceil(duration / max_substep)``, at least one.  The 1e-12 slack
    keeps a duration that is a whole multiple of ``max_substep`` up to
    rounding from gaining a step."""
    return max(1, math.ceil(duration / max_substep - 1e-12))


def substep_buffers(nodes: int, *width: int) -> Tuple[np.ndarray, ...]:
    """Work buffers for the fused substep loops: two stacked ``[T; P; 1]``
    state blocks of shape ``(2·nodes+1, *width)`` that the loop
    ping-pongs between, and a ``(nodes, *width)`` power accumulator.
    The bottom row of each state block is the constant 1.0 the fused
    kernel's ambient column multiplies; it is written here once and
    never touched by the loops."""
    state_a, state_b = (np.zeros((2 * nodes + 1, *width)) for _ in range(2))
    state_a[2 * nodes] = state_b[2 * nodes] = 1.0
    return state_a, state_b, np.empty((nodes, *width))


def substep_views(nodes: int) -> Tuple[np.ndarray, ...]:
    """The single-chip loop's operands, sliced once from fresh
    :func:`substep_buffers`: ``(state, temps, power, other, other_temps,
    other_power, acc)``, the two ``[T, P, 1]`` vectors with their ``T``
    and ``P`` views, then the per-node power accumulator."""
    n = nodes
    state, other, acc = substep_buffers(n)
    return state, state[:n], state[n : 2 * n], other, other[:n], other[n : 2 * n], acc


def fused_substeps(
    fused: np.ndarray,
    n_steps: int,
    temps: np.ndarray,
    base: np.ndarray,
    terms: Tuple[float, float, np.ndarray],
    views: Tuple[np.ndarray, ...],
) -> Tuple[np.ndarray, float]:
    """The fused single-chip substep loop: ``n_steps`` substeps of the
    ``(nodes, 2·nodes+1)`` kernel ``fused`` from ``temps`` (°C) under
    ``P = base + scaled_coef * exp(min(T * inv_slope, arg_cap))``,
    ``terms`` being :meth:`~repro.cpu.power.PowerCoefficients.fused_terms`.

    ``views`` is :func:`substep_views`: two contiguous ``[T, P, 1]``
    vectors (last entry 1.0) the loop ping-pongs between, one gemv per
    substep, and a per-node power accumulator.  Returns a view of the
    end temperatures inside a buffer (copy before the next call) and
    the power summed over substeps (W; times the step length, J).
    It touches no telemetry.
    """
    inv_slope, arg_cap, scaled_coef = terms
    state, s_temps, s_power, other, o_temps, o_power, acc = views
    s_temps[:] = temps
    acc.fill(0.0)
    multiply, minimum, add, vexp, dot = np.multiply, np.minimum, np.add, np.exp, np.dot
    for _ in range(n_steps):
        # P = base + scaled_coef * exp(min(T / slope, capped arg))
        multiply(s_temps, inv_slope, out=s_power)
        minimum(s_power, arg_cap, out=s_power)
        vexp(s_power, out=s_power)
        multiply(s_power, scaled_coef, out=s_power)
        add(s_power, base, out=s_power)
        add(acc, s_power, out=acc)
        dot(fused, state, out=o_temps)
        state, other = other, state
        s_temps, s_power, o_temps, o_power = o_temps, o_power, s_temps, s_power
    return s_temps, float(acc.sum())


class ChipAdvance:
    """One chip's fused advance on ``network``, with everything an
    advance needs allocated once: the kernel buffer
    :meth:`ThermalNetwork.kernel_into` writes and the
    :func:`substep_views` :func:`fused_substeps` runs on.

    Calling it advances ``temps`` (°C) by ``duration`` seconds (> 0)
    under one coefficient set, cut into :func:`substep_count` equal
    substeps, and returns ``(end temps, energy J, substeps)``; the end
    temperatures are a view into a work buffer (copy before the next
    call).  The single-machine integrator and a fleet's one-machine
    cohort both advance through it, which makes a fleet of one
    bit-identical to a standalone machine.
    """

    __slots__ = ("network", "max_substep", "_kernel", "_fused", "_views")

    def __init__(self, network: ThermalNetwork, max_substep: float):
        n = network.num_nodes
        self.network = network
        self.max_substep = max_substep
        self._kernel = np.empty((1, n * (2 * n + 1)))
        self._fused = self._kernel.reshape(n, 2 * n + 1)
        self._views = substep_views(n)

    def __call__(
        self, temps: np.ndarray, duration: float, coefficients: "PowerCoefficients"
    ) -> Tuple[np.ndarray, float, int]:
        n_steps = substep_count(duration, self.max_substep)
        h = duration / n_steps
        self.network.kernel_into(h, self._kernel)
        end, power_sum = fused_substeps(
            self._fused,
            n_steps,
            temps,
            coefficients.base,
            coefficients.fused_terms(),
            self._views,
        )
        return end, power_sum * h, n_steps


class ThermalIntegrator:
    """Advances a :class:`ThermalNetwork` through time.

    The integrator owns the temperature state (:attr:`temps`, shape
    ``(nodes,)``, °C).  Every advance cuts its interval into
    ``ceil(duration / max_substep)`` equal substeps and advances each
    one exactly for the power evaluated at its starting temperatures.
    The simulation hot path is :meth:`advance_coefficients` (fused,
    allocation-free); :meth:`advance` is the scalar reference oracle a
    Python power callback plugs into, kept for validation and for
    callers whose power is not an affine-exponential decomposition.
    """

    def __init__(
        self,
        network: ThermalNetwork,
        initial_temps: Optional[np.ndarray] = None,
        max_substep: float = 5e-3,
    ):
        if max_substep <= 0:
            raise ConfigurationError("max_substep must be positive")
        self.network = network
        self.max_substep = float(max_substep)
        scope = _metrics_registry().scope("thermal.rcnetwork")
        self._metric_advances = scope.counter("advances")
        self._metric_substeps = scope.counter("substeps")
        self._metric_fused_advances = scope.counter("fused_advances")
        if initial_temps is None:
            self.temps = np.full(network.num_nodes, network.ambient_temp, dtype=float)
        else:
            self.temps = np.array(initial_temps, dtype=float)
            if self.temps.shape != (network.num_nodes,):
                raise ConfigurationError("initial temperature vector has wrong length")
        # Preallocated work vectors for the fused path.
        self._power_buffer = np.empty(network.num_nodes)
        self._chip = ChipAdvance(network, self.max_substep)

    def _substeps(self, duration: float) -> Tuple[int, float]:
        """``duration`` cut into :func:`substep_count` equal substeps,
        as ``(count, length)``; counts the advance."""
        if duration < 0:
            raise ConfigurationError(f"cannot integrate a negative duration {duration}")
        n_steps = substep_count(duration, self.max_substep)
        self._metric_advances.inc()
        self._metric_substeps.inc(n_steps)
        return n_steps, duration / n_steps

    def advance(self, duration: float, power_fn: PowerFunction) -> AdvanceResult:
        """Integrate forward by ``duration`` seconds.

        ``power_fn(temps)`` is re-evaluated at the start of every
        substep, which is how leakage–temperature feedback enters.
        Returns the energy delivered and average power, which the power
        meter uses for exact energy accounting.
        """
        if duration == 0:
            power = np.asarray(power_fn(self.temps), dtype=float)
            return AdvanceResult(energy=0.0, average_power=float(power.sum()))

        network = self.network
        energy = 0.0
        n_steps, h = self._substeps(duration)
        propagator = network.propagator(h)
        temps = self.temps
        for _ in range(n_steps):
            power = np.asarray(power_fn(temps), dtype=float)
            energy += float(power.sum()) * h
            t_ss = network.steady_state(power)
            temps = t_ss + propagator @ (temps - t_ss)
        self.temps = temps
        return AdvanceResult(energy=energy, average_power=energy / duration)

    def advance_coefficients(
        self, duration: float, coefficients: "PowerCoefficients"
    ) -> AdvanceResult:
        """Integrate forward by ``duration`` seconds on the fused path.

        Parameters
        ----------
        duration:
            Interval length, seconds (≥ 0).  Cut into
            ``ceil(duration / max_substep)`` equal substeps.
        coefficients:
            Segment-constant affine-exponential power decomposition
            (:class:`repro.cpu.power.PowerCoefficients`, or anything
            with its ``evaluate``/``fused_terms`` contract): per-node
            ``base`` and ``leak_coef`` arrays of shape ``(nodes,)`` in
            watts, plus the shared leakage-exponential constants.

        Returns
        -------
        AdvanceResult
            Energy delivered over the interval (J) and its time
            average (W); :attr:`temps` holds the end-of-interval node
            temperatures (°C).

        The substeps run in :class:`ChipAdvance`: no Python per-core
        loop, no ``steady_state`` solve, and the kernel and loop work
        vectors are preallocated.  Numerically equivalent to
        :meth:`advance` with the matching power callback (same
        propagator, algebraically identical update).
        """
        if duration <= 0:
            if duration < 0:
                raise ConfigurationError(
                    f"cannot integrate a negative duration {duration}"
                )
            power = coefficients.evaluate(self.temps, out=self._power_buffer)
            return AdvanceResult(energy=0.0, average_power=float(power.sum()))

        temps, energy, n_steps = self._chip(self.temps, duration, coefficients)
        self._metric_advances.inc()
        self._metric_substeps.inc(n_steps)
        self._metric_fused_advances.inc()
        self.temps = temps.copy()
        return AdvanceResult(energy=energy, average_power=energy / duration)

    def settle(
        self,
        power_fn: PowerFunction,
        *,
        tolerance: float = 1e-6,
        max_iterations: int = 20000,
        max_time: float = 3600.0,
    ) -> np.ndarray:
        """Run to (nonlinear) steady state under a fixed power function.

        Uses fixed-point iteration on the linear steady state.  The map
        ``T -> steady_state(P(T))`` is a monotone contraction whenever
        the leakage feedback loop gain is below one (physically: no
        thermal runaway); near the gain's fold the contraction factor
        approaches one, so many cheap iterations may be needed.  Falls
        back to time integration if the fixed point fails to converge.
        """
        temps = self.temps.copy()
        for _ in range(max_iterations):
            power = np.asarray(power_fn(temps), dtype=float)
            new_temps = self.network.steady_state(power)
            if np.max(np.abs(new_temps - temps)) < tolerance:
                self.temps = new_temps
                return new_temps
            temps = new_temps
        # Fixed point did not converge; integrate instead.
        self.temps = temps
        elapsed = 0.0
        chunk = 5.0
        while elapsed < max_time:
            before = self.temps.copy()
            self.advance(chunk, power_fn)
            elapsed += chunk
            if np.max(np.abs(self.temps - before)) < tolerance:
                break
        return self.temps


class FleetThermalIntegrator:
    """Advances ``N`` independent copies of one network as cohorts.

    The fleet's temperature state is a single structure-of-arrays
    ``(machines, nodes)`` float array (:attr:`temps`, °C) — machine
    ``j``'s nodes are row ``j``, in the same node order a standalone
    :class:`ThermalIntegrator` uses.  :meth:`advance_machines` moves
    any subset of machines forward, each by its own duration: the
    selected rows are gathered into one stacked ``(2·nodes+1, K)``
    state block ``[T; P; 1]`` (machines along columns) and every
    substep costs one elementwise leakage chain on ``(nodes, K)``
    blocks plus one propagation.  Every column gets its own kernel from
    one :meth:`ThermalNetwork.step_kernels` gemm, and the propagation is
    one stacked matmul of those kernels against the state columns.  The
    columns are ordered by substep count, longest first, so the columns
    still running are always a prefix that shrinks as shorter ones
    finish.  A lockstep cohort (one duration for all) shares one kernel
    instead, and its propagation is a single
    ``(nodes, 2·nodes+1) @ (2·nodes+1, K)`` gemm.

    Equivalence guarantees, relied on by the fleet tests:

    - a cohort of one machine (``K = 1``) skips the cohort set-up and
      advances through a :class:`ChipAdvance`, the very code
      :meth:`ThermalIntegrator.advance_coefficients` runs, with the
      same substep count, kernel and loop, so a fleet of one machine
      reproduces a standalone machine bit for bit by construction;
    - for ``K > 1`` the cohort accumulates in a different order than K
      gemvs, so per-substep results agree to float rounding (not
      bitwise); over any simulated horizon the accumulated difference
      stays far below the repo-wide 1e-9 °C equivalence pin because
      the propagator is a contraction.

    Substep counts come from the single-chip integrator's
    :func:`substep_count` rule, per column.

    Telemetry (``fleet`` scope): ``machines`` gauge, ``substeps``
    counter in *chip-substeps* (the sum of every column's substeps per
    advance, additive with what ``N`` standalone integrators would
    have counted), ``batched_advances`` counter, and the
    ``advance_wall`` timer over every batched advance.
    """

    def __init__(
        self,
        network: ThermalNetwork,
        num_machines: int,
        initial_temps: Optional[np.ndarray] = None,
        max_substep: float = 5e-3,
    ):
        if num_machines < 1:
            raise ConfigurationError("a fleet needs at least one machine")
        if max_substep <= 0:
            raise ConfigurationError("max_substep must be positive")
        self.network = network
        self.num_machines = int(num_machines)
        self.max_substep = float(max_substep)
        n = network.num_nodes
        if initial_temps is None:
            self.temps = np.full((num_machines, n), network.ambient_temp, dtype=float)
        else:
            initial = np.asarray(initial_temps, dtype=float)
            if initial.shape == (n,):
                self.temps = np.tile(initial, (num_machines, 1))
            elif initial.shape == (num_machines, n):
                self.temps = initial.copy()
            else:
                raise ConfigurationError(
                    f"initial temperatures must be ({n},) or "
                    f"({num_machines}, {n}), got {initial.shape}"
                )
        scope = _metrics_registry().scope("fleet")
        scope.gauge("machines").set(num_machines)
        self._metric_substeps = scope.counter("substeps")
        self._metric_batched_advances = scope.counter("batched_advances")
        self._metric_advance_wall = scope.timer("advance_wall")
        # substep_buffers per cohort width K > 1 (widths repeat heavily,
        # so this is a handful of entries).
        self._scratch: dict = {}
        self._chip = ChipAdvance(network, self.max_substep)

    # ------------------------------------------------------------------
    def _cohort_scratch(self, width: int):
        buffers = self._scratch.get(width)
        if buffers is None:
            buffers = substep_buffers(self.network.num_nodes, width)
            self._scratch[width] = buffers
        return buffers

    def advance_machines(
        self,
        machines: Sequence[int],
        duration: "float | Sequence[float]",
        coefficients,
    ) -> np.ndarray:
        """Advance a cohort of machines, each by its own duration.

        Parameters
        ----------
        machines:
            Row indices of the machines to advance.
        duration:
            Interval length, seconds (> 0): one scalar for the whole
            cohort, or one entry per machine.  Each column is cut into
            its own ``ceil(duration / max_substep)`` equal substeps.
        coefficients:
            :class:`repro.cpu.power.FleetCoefficients` whose columns
            line up with ``machines``: ``base``/``scaled_coef`` of
            shape ``(nodes, K)`` in watts plus the shared scalar
            leakage constants.

        Returns
        -------
        numpy.ndarray
            Energy delivered per machine over its interval, shape
            ``(K,)``, joules, in ``machines`` order.
        """
        count = len(machines)
        if count == 0:
            return np.empty(0)
        if coefficients.num_machines != count:
            raise ConfigurationError(
                f"coefficient stack is {coefficients.num_machines} machines "
                f"wide, cohort has {count}"
            )
        if count == 1:
            try:
                (seconds,) = duration
            except TypeError:  # one scalar duration
                seconds = duration
            except ValueError:  # a sequence of the wrong length
                seconds = math.nan
            if not seconds > 0:
                raise ConfigurationError(
                    f"cohort advance needs 1 positive durations, got {duration}"
                )
        else:
            durations = np.asarray(duration, dtype=float)
            if durations.ndim == 0:
                durations = np.full(count, durations)
            if durations.shape != (count,) or not (durations > 0).all():
                raise ConfigurationError(
                    f"cohort advance needs {count} positive durations, got {duration}"
                )
        started = time.perf_counter()
        try:
            if count == 1:
                # A cohort of one runs the single-chip advance on the
                # machine's own coefficient set.
                machine = machines[0]
                temps, energy, n_steps = self._chip(
                    self.temps[machine], float(seconds), coefficients.sources[0]
                )
                self.temps[machine] = temps
                self._metric_substeps.inc(n_steps)
                self._metric_batched_advances.inc()
                return np.array([energy])
            n_steps = np.maximum(np.ceil(durations / self.max_substep - 1e-12), 1.0)
            n_steps = n_steps.astype(np.intp)
            steps = durations / n_steps
            self._metric_substeps.inc(int(n_steps.sum()))
            self._metric_batched_advances.inc()
            return self._advance_cohort(machines, n_steps, steps, coefficients)
        finally:
            self._metric_advance_wall.add(time.perf_counter() - started)

    def _advance_cohort(self, machines, n_steps, steps, coefficients) -> np.ndarray:
        """The K>1 substep loop.  Columns are sorted by ``n_steps``
        (longest first), each gets its own kernel, and every substep
        propagates the running prefix with one stacked matmul.  A
        lockstep cohort (one substep count and length for all) runs one
        phase over whole, contiguous blocks, so it propagates with one
        gemm against a shared kernel instead: 1.3-3x the stacked
        matmul's throughput, growing with K."""
        order = np.argsort(-n_steps, kind="stable")
        machines = np.asarray(machines)[order]
        counts = n_steps[order].tolist()  # descending
        steps = steps[order]
        # take, unlike [:, order], keeps the (nodes, K) blocks C-ordered
        # like the state buffers, so the ufunc chain runs at unit stride.
        base = np.take(coefficients.base, order, axis=1)
        scaled_coef = np.take(coefficients.scaled_coef, order, axis=1)
        shared = counts[0] == counts[-1] and bool((steps == steps[0]).all())
        kernels = self.network.step_kernels(steps[:1] if shared else steps)
        propagate = np.dot if shared else np.matmul
        inv_slope = coefficients.inv_slope
        arg_cap = coefficients.arg_cap
        n = self.network.num_nodes
        current, following, acc = self._cohort_scratch(len(machines))
        current[:n] = self.temps[machines].T
        acc.fill(0.0)
        multiply, minimum, add, vexp = np.multiply, np.minimum, np.add, np.exp
        width, done = len(counts), 0
        while width:
            # Columns [:width] all run substeps done..until-1.
            until = counts[width - 1]
            base_w, coef_w = base[:, :width], scaled_coef[:, :width]
            acc_w = acc[:, :width]
            # Per buffer: T, P, and the operands propagate reads and
            # writes: the blocks themselves for the gemm, or the
            # (width, 2n+1, 1) and (width, n, 1) stacks of column vectors
            # for the per-column matmul.
            buffers = current[:, :width], following[:, :width]
            if shared:
                kernels_w = kernels[0]
                src, dst = [(b[:n], b[n : 2 * n], b, b[:n]) for b in buffers]
            else:
                kernels_w = kernels[:width]
                src, dst = [
                    (b[:n], b[n : 2 * n], b.T[:, :, None], b[:n].T[:, :, None])
                    for b in buffers
                ]
            for _ in range(until - done):
                s_temps, s_power, s_operand, _ = src
                # P = base + scaled_coef * exp(min(T * inv_slope, arg_cap)),
                # all (nodes, width) blocks — same chain as the 1-D path.
                multiply(s_temps, inv_slope, out=s_power)
                minimum(s_power, arg_cap, out=s_power)
                vexp(s_power, out=s_power)
                multiply(s_power, coef_w, out=s_power)
                add(s_power, base_w, out=s_power)
                add(acc_w, s_power, out=acc_w)
                propagate(kernels_w, s_operand, out=dst[3])
                src, dst = dst, src
            if (until - done) % 2:
                current, following = following, current
            done = until
            finished = width
            while width and counts[width - 1] == until:
                width -= 1
            self.temps[machines[width:finished]] = current[:n, width:finished].T
        energies = np.empty(len(counts))
        energies[order] = acc.sum(axis=0) * steps
        return energies

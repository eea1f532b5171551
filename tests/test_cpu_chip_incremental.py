"""Differential tests: the chip's incremental power state against a
from-scratch reference.

Cores keep their busy mask, activity and promotion instant on the
run/idle transitions, and :meth:`Chip.power_segment` classifies
C-states, finds the promotion horizon and memoises coefficient sets
from those fields.  The reference below re-derives all of it from the
raw per-context lists and the idle-period fields on every query, the
way the chip did before it kept any state: ``effective_cstate`` for
each core, ``power_coefficients`` for the frozen C-states, and a scan
of every core for the next promotion instant.  Random context traces
(hinted and natural idle, SMT 1 and 2, nop and zero activity, DVFS,
per-core overrides, TCC, C1E on and off) must agree exactly.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import Chip, CState, PowerParams
from repro.cpu.tcc import TCC_OFF, setpoints

#: Gaps between transitions, around both promotion thresholds
#: (0.24 ms hinted, 0.44 s natural).
DELAYS = [0.0, 1e-6, 1e-4, 2.4e-4, 1e-3, 0.05, 0.3, 0.44, 1.0]
#: Zero (a threadless zero-activity context is not busy), the nop-loop
#: fraction the injector's spin mode runs at, and workload activities.
ACTIVITIES = [0.0, PowerParams().nop_loop_fraction, 0.6, 0.85, 1.0]
TCC_SETTINGS = [TCC_OFF] + list(setpoints(8)[:3])


def reference_segment(chip: Chip, time: float):
    """``(cstates, horizon, base, leak_coef)`` at ``time``, from the raw
    context lists alone."""
    model = chip.power_model
    params = model.params
    n = chip.num_cores
    base, leak_coef = np.zeros(n + 2), np.zeros(n + 2)
    cstates, horizon = [], math.inf
    for i, core in enumerate(chip.cores):
        busy = [
            t is not None or a > 0.0
            for t, a in zip(core.context_threads, core.context_activity)
        ]
        promotion = core.idle_since + core.idle_threshold
        if any(busy):
            state = CState.C0
        elif time < promotion or not chip.c1e_enabled:
            state = CState.C1
        else:
            state = CState.C1E
        if not any(busy) and chip.c1e_enabled and time < promotion < horizon:
            horizon = promotion
        activity = sum(core.context_activity)
        if sum(busy) > 1:
            activity *= params.smt_activity_factor
        base[i], leak_coef[i] = model.core_coefficients(
            state,
            core.operating_point_override or chip.operating_point,
            activity=activity,
            tcc=chip.tcc,
        )
        cstates.append(state)
    base[n] = params.uncore_power
    return tuple(cstates), horizon, base, leak_coef


def check_core_fields(chip: Chip) -> None:
    """The transition-maintained fields equal a rescan of the contexts."""
    for core in chip.cores:
        busy = [
            t is not None or a > 0.0
            for t, a in zip(core.context_threads, core.context_activity)
        ]
        assert core.context_busy == busy
        assert core.busy_contexts == sum(busy)
        assert core.running == any(busy)
        assert core.activity == sum(core.context_activity)
        expected = None if any(busy) else core.idle_since + core.idle_threshold
        assert core.promotion_time() == expected


def power_key(chip: Chip, cstates):
    """What the coefficients depend on besides chip-wide settings."""
    return cstates, tuple(chip.core_activity(core) for core in chip.cores)


_core = st.integers(0, 3)
_context = st.integers(0, 1)
_ops = st.one_of(
    st.tuples(
        st.just("run"), _core, _context, st.booleans(), st.sampled_from(ACTIVITIES)
    ),
    st.tuples(st.just("idle"), _core, _context, st.booleans()),
    st.tuples(st.just("dvfs"), st.integers(0, 7)),
    st.tuples(st.just("override"), _core, st.one_of(st.none(), st.integers(0, 7))),
    st.tuples(st.just("tcc"), st.integers(0, len(TCC_SETTINGS) - 1)),
)
_query = st.tuples(
    st.sampled_from(["ahead", "promotion", "before", "after"]),
    _core,
    st.sampled_from(DELAYS),
)


@settings(max_examples=200, deadline=None)
@given(
    num_cores=st.integers(1, 4),
    smt=st.integers(1, 2),
    c1e_enabled=st.booleans(),
    steps=st.lists(
        st.tuples(st.sampled_from(DELAYS), _ops, st.lists(_query, max_size=3)),
        max_size=40,
    ),
)
def test_power_segment_matches_from_scratch_reference(num_cores, smt, c1e_enabled, steps):
    chip = Chip(num_cores=num_cores, smt=smt, c1e_enabled=c1e_enabled)
    points = chip.dvfs_table.points
    now = 0.0
    settings_version = 0
    seen = {}  # (settings version, power key) -> coefficient object
    check_core_fields(chip)
    for delay, op, queries in steps:
        now += delay
        kind, *args = op
        if kind == "run":
            core, context, with_thread, activity = args
            chip.cores[core % num_cores].set_context_running(
                context % smt, object() if with_thread else None, activity, now
            )
        elif kind == "idle":
            core, context, hinted = args
            chip.cores[core % num_cores].set_context_idle(context % smt, now, hinted=hinted)
        elif kind == "dvfs":
            chip.set_operating_point(points[args[0] % len(points)])
            settings_version += 1
        elif kind == "override":
            core, point = args
            chip.set_core_operating_point(
                core % num_cores, None if point is None else points[point % len(points)]
            )
            settings_version += 1
        else:
            chip.set_tcc(TCC_SETTINGS[args[0]])
            settings_version += 1
        check_core_fields(chip)

        for where, core, offset in [("ahead", 0, 0.0)] + queries:
            promotion = chip.cores[core % num_cores].promotion_time()
            if where == "ahead" or promotion is None:
                time = now + offset
            elif where == "promotion":
                time = promotion
            elif where == "before":
                time = math.nextafter(promotion, -math.inf)
            else:
                time = math.nextafter(promotion, math.inf)
            time = max(time, now)

            cstates, coefficients, horizon = chip.power_segment(time)
            ref_cstates, ref_horizon, ref_base, ref_leak = reference_segment(chip, time)
            assert cstates == ref_cstates
            assert horizon == ref_horizon
            assert np.array_equal(coefficients.base, ref_base)
            assert np.array_equal(coefficients.leak_coef, ref_leak)

            key = power_key(chip, cstates)
            previous = seen.get((settings_version, key))
            if previous is not None:
                assert coefficients is previous  # recurring state: same object
            for (version, old_key), old in seen.items():
                if old_key == key and version < settings_version:
                    assert coefficients is not old  # memo emptied since
            seen[(settings_version, key)] = coefficients


def test_recurring_state_returns_memoised_coefficients():
    chip = Chip(num_cores=2)
    chip.cores[0].set_running(object(), 1.0, 0.0)
    _, busy, _ = chip.power_segment(0.0)
    chip.cores[0].set_idle(1.0, hinted=True)
    _, idle, _ = chip.power_segment(1.0)
    assert idle is not busy
    chip.cores[0].set_running(object(), 1.0, 2.0)
    _, again, _ = chip.power_segment(2.0)
    assert again is busy


def test_chip_wide_changes_empty_the_memo():
    chip = Chip(num_cores=2)
    chip.cores[0].set_running(object(), 1.0, 0.0)
    _, first, _ = chip.power_segment(0.0)
    chip.set_operating_point(chip.operating_point)  # same point, new epoch
    _, after_dvfs, _ = chip.power_segment(0.0)
    assert after_dvfs is not first
    assert np.array_equal(after_dvfs.base, first.base)
    chip.set_tcc(TCC_OFF)
    _, after_tcc, _ = chip.power_segment(0.0)
    assert after_tcc is not after_dvfs
    chip.set_core_operating_point(1, None)
    _, after_override, _ = chip.power_segment(0.0)
    assert after_override is not after_tcc

"""End-to-end and per-layer benchmark of the Dimetrodon simulator.

Run from the repository root (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload rack16 --seed 0 --seconds 30 --trace 0

Workloads (see ``suite.py``): ``rack16``, ``server1``, ``sweep_cached``.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics of ``BENCHMARK.json``: simulated machine-seconds per host
second of simulation over passes repeated for about ``--seconds``, the
median set-up time of five fresh interpreters, and peak resident
memory.  ``--trace 1``
runs one pass with every layer's entry points wrapped in timing spans
(``layers.py``) and one pass without, and reports the per-layer
metrics, the tracing overhead, and whether both passes made identical
per-layer counts.

The report ends with one JSON line: ``correct``, ``attempted`` and
``failed`` operations, and ``metrics``.  The exit status is 0 when
every output check passed, 1 when one failed, 2 when the arguments are
wrong or the program's source is missing.  The benchmark reads BLAS
thread variables into the environment block and never sets them.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import envinfo
import layers
import suite

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self, workload: suite.Workload, seed: int):
        self.workload = workload
        self.reference = suite.load_reference(workload.name, seed)
        self.first: Optional[suite.PassResult] = None
        self.attempted = 0
        self.failures: List[str] = []
        self.failed_ops: set = set()

    def _fail(self, label: str, op: str, problems: List[str]) -> None:
        self.failed_ops.add((label, op))
        self.failures.extend(f"{label} {op}: {problem}" for problem in problems)

    def add_pass(self, label: str, result: Optional[suite.PassResult], error: Optional[str]) -> None:
        """Check one pass; a pass that raised fails all its operations."""
        names = self.workload.op_names()
        self.attempted += len(names)
        if result is None:
            for name in names:
                self._fail(label, name, [error or "the pass did not complete"])
            return
        problems = {name: list(result.problems.get(name, [])) for name in names}
        simulated = sum(m for m, _ in result.simulations)
        if simulated != self.workload.machine_s:
            for name in names:
                problems[name].append(
                    f"simulated {simulated} machine-s, expected {self.workload.machine_s}"
                )
        try:
            for name, found in self.workload.invariants(result).items():
                problems[name] += found
        except (KeyError, TypeError) as exc:
            for name in names:
                problems[name].append(f"outputs incomplete ({exc!r})")
        if self.reference is not None:
            shared = suite.compare(result.totals, self.reference["totals"])
            for name in names:
                problems[name] += suite.compare(
                    result.ops.get(name, {}), self.reference["ops"][name]
                ) + shared
        if self.first is None:
            self.first = result
        else:
            for name in names:
                if (result.ops.get(name), result.totals) != (
                    self.first.ops.get(name),
                    self.first.totals,
                ):
                    problems[name].append("outputs differ from this run's first pass")
        for name, found in problems.items():
            if found:
                self._fail(label, name, found)

    def fail_pass(self, label: str, problem: str) -> None:
        for name in self.workload.op_names():
            self._fail(label, name, [problem])

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def run_pass(workload: suite.Workload, config: Any, scratch: Path) -> Tuple[Optional[suite.PassResult], Optional[str]]:
    """One pass; an exception or timeout becomes an error string."""
    try:
        return workload.run_pass(config, scratch), None
    except (Exception, suite.PassTimeout):
        return None, traceback.format_exc(limit=-3).strip().replace("\n", " | ")


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------
def probe_setup(workload: suite.Workload, seed: int) -> float:
    """Seconds from launching a fresh interpreter until the workload is
    set up and about to simulate its first event."""
    command = [sys.executable, str(HERE / "probe.py"), workload.name, str(seed)]
    started = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=suite.ROOT)
    try:
        with suite.deadline(PROBE_TIMEOUT_S):
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return elapsed


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest child
    (set-up probes, pool workers), MiB."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def _rate(passes: List[suite.PassResult]) -> float:
    """Simulated machine-seconds per host second of simulation, over
    every simulation run of ``passes``."""
    machine_s = sum(m for result in passes for m, _ in result.simulations)
    host_s = sum(h for result in passes for _, h in result.simulations)
    return machine_s / host_s if host_s else 0.0


def measure(workload, config, seed, seconds, scratch) -> Tuple[Tally, Dict[str, Any]]:
    """``--trace 0``: set-up probes, then passes for ``seconds``."""
    tally = Tally(workload, seed)
    setup_times = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    passes: List[suite.PassResult] = []
    started = time.perf_counter()
    while True:
        result, error = run_pass(workload, config, scratch)
        tally.add_pass(f"pass {len(passes) + 1}", result, error)
        # Free the pass's reference cycles (machines, schedulers) so the
        # next pass does not raise the memory peak.
        gc.collect()
        if result is None:
            break
        passes.append(result)
        # Start another pass only if it should end within ``seconds``.
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    metrics = {
        "sim_machine_s_per_s": _rate(passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "simulations": [p.simulations for p in passes],
        "setup_times_s": setup_times,
    }
    replays = [p.replay_s for p in passes if p.replay_s is not None]
    if replays:
        details["replay_s"] = statistics.median(replays)
    return tally, {"metrics": metrics, "details": details}


def measure_traced(workload, config, seed, scratch) -> Tuple[Tally, Dict[str, Any]]:
    """``--trace 1``: a traced set-up and pass, then an untraced pass."""
    from repro.telemetry.registry import registry

    def snapshot() -> Dict[str, float]:
        return layers.flatten(registry().snapshot())

    tally = Tally(workload, seed)
    with layers.Tracer(registry) as tracer:
        layers.install(tracer)
        before = snapshot()
        suite.set_up(workload, seed)
        middle = snapshot()
        traced, error = run_pass(workload, config, scratch)
        after = snapshot()
    tally.add_pass("traced pass", traced, error)
    untraced_before = snapshot()
    untraced, error = run_pass(workload, config, scratch)
    untraced_delta = layers.delta(snapshot(), untraced_before)
    tally.add_pass("untraced pass", untraced, error)
    if traced is None or untraced is None:
        return tally, {"metrics": {}, "details": {}}

    # Two runs of the same code must make the same per-layer counts:
    # the traced pass's wrapper counts, its program counters, and the
    # untraced pass's program counters.
    traced_delta = layers.delta(after, middle)
    traced_counts = layers.program_counts(traced_delta)
    untraced_counts = layers.program_counts(untraced_delta)
    wrapped = {
        "thermal.advance_calls": traced_delta.get("bench.thermal.advance.count", 0),
        "cpu.power_segment_calls": traced_delta.get("bench.cpu.power_segment.count", 0),
    }
    for name, count in traced_counts.items():
        if untraced_counts[name] != count:
            tally.fail_pass("traced pass", f"{name}: traced {count}, untraced {untraced_counts[name]}")
        if name in wrapped and wrapped[name] != count:
            tally.fail_pass("traced pass", f"{name}: {wrapped[name]} wrapped calls, program counted {count}")

    metrics = layers.layer_metrics(
        layers.delta(after, before),
        jobs=suite.SWEEP_JOBS,
        kernel_ideal=suite.kernel_ideal_rate(config),
        replay_s=traced.replay_s or 0.0,
    )
    traced_rate, untraced_rate = _rate([traced]), _rate([untraced])
    metrics.update(
        {
            "trace.traced_sim_machine_s_per_s": traced_rate,
            "trace.untraced_sim_machine_s_per_s": untraced_rate,
            "trace.overhead_ratio": untraced_rate / traced_rate,
        }
    )
    details = {"determinism_counts": {"traced": traced_counts, "untraced": untraced_counts}}
    return tally, {"metrics": metrics, "details": details}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def declared(workload: str, trace: bool) -> Tuple[str, Dict[str, str]]:
    """The workload's reason and the metrics (name -> unit) this mode
    reports, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((suite.ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    metrics = spec["per_layer" if trace else "end_to_end"]
    return why, {m["name"]: m["unit"] for m in metrics}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        suite.import_program()
        why, units = declared(args.workload, bool(args.trace))
    except (OSError, ImportError, ValueError, KeyError, StopIteration) as exc:
        print(f"perfbench: cannot run: {exc!r}", file=sys.stderr)
        return 2
    from repro import fast_config

    workload = suite.WORKLOADS[args.workload]
    environment = envinfo.environment(suite.ROOT)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        if args.trace:
            tally, measured = measure_traced(workload, fast_config(args.seed), args.seed, scratch)
        else:
            tally, measured = measure(
                workload, fast_config(args.seed), args.seed, args.seconds, scratch
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = tally.failed == 0
    # A run with no completed pass has nothing to report; it fails.
    values = measured["metrics"] or dict.fromkeys(units, 0.0)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": workload.name,
        "why": why,
        "seed": args.seed,
        "trace": args.trace,
        "reference_checked": tally.reference is not None,
        "environment": environment,
        "error_rate": tally.failed / tally.attempted,
        "metrics": metrics,
        "details": measured["details"],
        "failures": tally.failures,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: {why}")
    print(f"  environment {json.dumps(environment, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"  {name:<40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'error_rate':<40s} {record['error_rate']:>16.6g} ({tally.failed}/{tally.attempted} operations failed)")
    if "replay_s" in measured["details"]:
        print(f"  {'replay_s (median)':<40s} {measured['details']['replay_s']:>16.6g} s")
    print(f"  reference outputs checked: {'yes' if tally.reference else 'no (invariants only)'}")
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

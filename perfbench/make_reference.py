"""Regenerate the committed reference outputs of the benchmark.

    python3 perfbench/make_reference.py --seeds 0 1 2 [--workload rack16 ...]

Runs one pass of each workload per seed and stores its per-operation
outputs and pass totals in ``reference/<workload>.json``, keeping the
seeds already there.  A pass that fails its invariants is not stored.
Regenerate only for a change that is meant to alter simulated results,
and say so in that change: the benchmark compares every run on a
stored seed against these files.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument(
        "--workload", nargs="+", choices=sorted(suite.WORKLOADS), default=sorted(suite.WORKLOADS)
    )
    args = parser.parse_args(argv)
    suite.import_program()
    from repro import fast_config

    suite.REFERENCE_DIR.mkdir(exist_ok=True)
    status = 0
    for name in args.workload:
        workload = suite.WORKLOADS[name]
        path = suite.REFERENCE_DIR / f"{name}.json"
        stored = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=suite.REFERENCE_DIR.parent) as scratch:
                result = workload.run_pass(fast_config(seed), scratch)
            problems = {op: found for op, found in workload.invariants(result).items() if found}
            problems.update({op: found for op, found in result.problems.items() if found})
            if problems:
                print(f"{name} seed {seed}: not stored, {problems}", file=sys.stderr)
                status = 1
                continue
            stored["seeds"][str(seed)] = {"ops": result.ops, "totals": result.totals}
            print(f"{name} seed {seed}: stored {len(result.ops)} operations")
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())

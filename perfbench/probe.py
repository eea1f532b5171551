"""Set-up probe: one workload's set-up in a fresh interpreter.

``run.py`` times this process from launch until it prints ``ready``:
interpreter start, the package import, and everything
:func:`suite.set_up` does before the workload's first simulated event.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys

import suite


def main(argv):
    workload, seed = suite.WORKLOADS[argv[0]], int(argv[1])
    suite.import_program()
    suite.set_up(workload, seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Set-up probe: a fresh interpreter imports nullgrid, builds one
workload's rings, grids and polynomials, then prints ``ready``.

The benchmark times this from process start to the ``ready`` line, less
the seconds printed on that line, which drawing the inputs took: that is
the benchmark's work, not the program's.

    python3 perfbench/probe.py <workload> <seed> <size>
"""

import sys
import time

import nullgrid as ng

from workloads import WORKLOADS, specs


def main(name: str, seed: str, size: str):
    module = WORKLOADS[name]
    start = time.perf_counter()
    inputs = specs(name, int(seed), size)
    drawing = time.perf_counter() - start
    cases = [module.prepare(spec, ng) for spec in inputs]
    print("ready", len(cases), repr(drawing), flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])

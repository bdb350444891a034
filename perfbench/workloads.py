"""The workload registry and the seeded case lists."""

from __future__ import annotations

import wl_cli_cold
import wl_dense_support
import wl_enumerate
from common import case_rng

WORKLOADS = {"enumerate": wl_enumerate, "dense-support": wl_dense_support, "cli-cold": wl_cli_cold}

# full-size lists hold more cases than one run completes on the seed commit,
# so a run rarely repeats an input; a faster program cycles through them
CYCLES = {"enumerate": 15, "dense-support": 20, "cli-cold": 10}


def specs(name: str, seed: int, size: str) -> list[dict]:
    """The case inputs of a workload: slot i of the cycle, drawn from
    (workload, seed, i) alone."""
    shapes = WORKLOADS[name].slots(size)
    count = len(shapes) * (CYCLES[name] if size == "full" else 1)
    return [WORKLOADS[name].generate(case_rng(name, seed, i), shapes[i % len(shapes)])
            for i in range(count)]

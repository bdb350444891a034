"""Record the library byte-identity file ``library_golden.json``.

    PYTHONPATH=src python tests/record_library_golden.py

It draws the ``enumerate`` and ``dense-support`` benchmark cases of seeds
1-3 (``perfbench/workloads.py``): the first full-size cycle and the
``--size tiny`` cases.  For each it stores the case inputs and the sha256
of ``repr`` of the workload's ``execute()`` result, run in-process with
every grid the kernel can take on the kernel.
``test_oracle.test_library_results_are_byte_identical`` replays the file
through ``execute`` below, which repeats the workloads' calls, so the
test never imports ``perfbench``; tiny cases also run on the reference.
Re-record only for a planned change of a result, and list what changed.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "library_golden.json"
SEEDS = (1, 2, 3)
WORKLOADS = ("enumerate", "dense-support")


def digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()


def execute(workload: str, spec: dict):
    """The calls of one case of ``workload`` on the stored inputs, as the
    workload's ``prepare`` and ``execute`` make them."""
    import nullgrid as ng

    ring = ng.RingSpec.from_string(spec["ring"])
    grid = ng.GridSpec(ring, spec["sets"])
    if workload == "dense-support":
        names, text = spec["names"], spec["text"]
        f = ng.parse_poly(text, names, ring)
        report = ng.verify_bounds(f, grid)
        trimmed = ng.trim(f, ng.GridSpec(ring, spec["trim_sets"]))
        expanded = f.render(names)
        c, i, j = spec["perturb"]
        pring = ng.RingSpec.from_string(spec["pit_ring"])
        dag = ng.parse_dag(text, names, pring)
        same = ng.parse_dag(expanded, names, pring)
        other = ng.parse_dag(f"{expanded} + {c}*{names[0]}^{i}*{names[1]}^{j}", names, pring)
        options = {"samples_per_var": spec["samples"], "trials": 10, "seed": spec["pit_seed"]}
        return (f, report, trimmed,
                ng.identity_test(dag, same, **options), ng.identity_test(dag, other, **options))
    kind = spec["kind"]
    if "terms" in spec:
        f = ng.Polynomial(len(spec["sets"]), ring, {tuple(e): c for e, c in spec["terms"]})
    if kind == "verify":
        return ng.verify_bounds(f, grid)
    if kind == "zeros":
        return ng.count_nonzeros(f, grid, collect_zeros=True)
    if kind == "coeff":
        return ng.coefficient_via_grid(ng.grid_values(f, grid), grid, tuple(spec["d"]))
    if kind == "tightness":
        return ng.count_nonzeros(ng.tightness_family(grid, tuple(spec["d"])), grid, collect_zeros=False)
    return ng.min_nonzero_search(tuple(map(tuple, spec["support"])), tuple(spec["required"]), grid,
                                 exhaustive_limit=20_000, sample_budget=20_000, seed=spec["search_seed"])


def cases() -> list[tuple]:
    """(workload, size, spec, the workload module) of each case."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    from workloads import WORKLOADS as MODULES, specs

    rows = []
    for workload in WORKLOADS:
        module = MODULES[workload]
        cycle = len(module.slots("full"))
        for seed in SEEDS:
            for size, drawn in (("full", specs(workload, seed, "full")[:cycle]),
                                ("tiny", specs(workload, seed, "tiny"))):
                rows.extend((workload, size, spec, module) for spec in drawn)
    return rows


def main() -> None:
    import numpy  # noqa: F401  every grid the kernel can take goes to the kernel

    import nullgrid as ng
    from nullgrid import oracle

    oracle._cold_work_left = 0
    rows = []
    for workload, size, spec, module in cases():
        sha = digest(module.execute(module.prepare(spec, ng), ng))
        if "terms" in spec:
            spec = dict(spec, terms=[[list(e), c] for e, c in spec["terms"].items()])
        spec = json.loads(json.dumps(spec))
        # the copied calls on the stored inputs give the workload's own result
        assert digest(execute(workload, spec)) == sha, (workload, spec)
        rows.append({"workload": workload, "size": size, "spec": spec, "sha256": sha})
    DIGESTS.write_text("[\n" + ",\n".join(json.dumps(row, separators=(",", ":")) for row in rows) + "\n]\n")
    print(f"{len(rows)} cases written to {DIGESTS}")


if __name__ == "__main__":
    main()

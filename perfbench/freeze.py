"""Freeze the answers of the default seed into ``expected/``.

    python3 perfbench/freeze.py

Runs every case of every workload once, at both sizes, and writes the
summarized answers the benchmark later compares against.  Refuses to write
when an answer breaks an invariant: frozen answers must be right, not just
repeatable.  Rerun only when the program's answers change on purpose, and
say so in the change that does it.
"""

import importlib
import json
import sys

import run


def main() -> int:
    run.cap_threads()
    sys.path.insert(0, str(run.SRC))
    importlib.import_module("nullgrid.cli")
    from workloads import WORKLOADS, specs

    for name, module in WORKLOADS.items():
        for size in ("full", "tiny"):
            answers, judge = {}, run.Judge(module, None)
            cases = run.prepare_cases(name, module, specs(name, run.DEFAULT_SEED, size))
            for index, case in enumerate(cases):
                _, out, error, _ = run.run_case(name, module, case)
                judge(index, case, out, error)
                if error is None:
                    answers[str(index)] = json.loads(json.dumps(module.summarize(case, out)))
            if judge.failures:
                print("\n".join(judge.failures), file=sys.stderr)
                return 1
            path = run.HERE / "expected" / f"{name}-{size}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps({"seed": run.DEFAULT_SEED, "size": size, "answers": answers},
                                       indent=0, sort_keys=True) + "\n")
            print(f"{path.name}: {len(answers)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own smoke test, on tiny inputs.

    python3 perfbench/smoke.py

Asserts that every metric named in BENCHMARK.json is emitted with its unit
on every workload, traced and untraced; that one deliberately corrupted
frozen answer raises the failure count above zero (the answer gate bites);
and that without the program's sources the benchmark exits non-zero
without printing a result.  Exits non-zero on the first broken promise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "1",
                           "--seconds", "1", "--size", "tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def result(lines: list[str]) -> dict:
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int)
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, lines = bench("--workload", workload, "--trace", str(trace))
            assert code == 0, f"{workload} trace {trace} exited {code}"
            out = result(lines)
            assert out["correct"] and out["failed"] == 0, f"{workload}: {lines[-2]}"
            if trace:
                record = json.loads(lines[-2])
                assert record["missing_targets"] == [] and record["count_hook_errors"] == 0, record
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == wanted[trace], f"{workload} trace {trace}: metrics differ from BENCHMARK.json"
            assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
            print(f"ok  {workload} trace {trace}: {len(got)} metrics, {out['attempted']} cases")

    # a copy of the benchmark whose frozen answer for case 0 is wrong, run
    # against the real sources
    corrupt = OUT / "corrupt"
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(HERE, corrupt / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    (corrupt / "src").symlink_to(ROOT / "src", target_is_directory=True)
    answers = corrupt / "perfbench" / "expected" / "enumerate-tiny.json"
    frozen = json.loads(answers.read_text())
    first = frozen["answers"]["0"]
    key = next(k for k, v in first.items() if isinstance(v, int) and not isinstance(v, bool))
    first[key] += 1
    answers.write_text(json.dumps(frozen))
    code, lines = bench("--workload", "enumerate", "--trace", "0", cwd=corrupt)
    shutil.rmtree(corrupt)
    out = result(lines)
    assert code == 0 and out["failed"] >= 1 and not out["correct"], "a corrupted answer went unnoticed"
    assert json.loads(lines[-2])["fail_frac"] > 0
    print(f"ok  corrupted answer {key!r} of case 0 fails {out['failed']} of {out['attempted']} cases")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = bench("--workload", "enumerate", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and not lines, "without the sources the benchmark must fail and print nothing"
    print(f"ok  without sources: exit {code}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
